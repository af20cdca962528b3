"""The way-below relation, compactness, and small (compact) bases.

``way_below`` quantifies over directed subsets rather than arbitrary indexed
families: on a finite poset every directed family factors through its image,
which is a directed subset, so nothing is lost (see README, "finite
semantics").  Up to ``SUBSET_ENUM_LIMIT`` elements the quantifier is run
literally over all subsets; past that the greatest-element reduction is used,
and the test suite cross-validates the two routes on the whole small corpus.

Each route decides the whole relation at once, the first time a poset is
asked, and caches the read-only matrix on the poset; every query reads it.
The enumerated route groups every directed subset by its supremum: x is way
below y unless some directed subset whose supremum is above y misses the
up-set of x.  The reduced route is the order: x is way below y when every g
above y is above x, which on a transitive order says x <= y.  Basis checks
read the matrix, or the order, by index through ``BasisMap.indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoInterpolant,
    NotABasis,
    NotARetract,
    NotDirected,
    PreconditionViolated,
    ShapeMismatch,
)
from .finposet import (
    SUBSET_ENUM_LIMIT,
    FinPoset,
    MonoMap,
    _row_masks,
    bool_product,
    directed_sup,
    retract_failure,
)


def _enumerated_relation(poset: FinPoset):
    """Way-below over every directed subset, grouped by supremum.

    ``miss[x, s]`` says that some directed subset with supremum s misses the
    up-set of x; x is then not way below any y <= s.
    """
    n = poset.n
    dmasks, sups = poset.directed_table
    miss = np.zeros((n, n), dtype=bool)
    for x in range(n):
        missed = sups[(dmasks & poset.up_masks[x]) == 0]
        miss[x] = np.bincount(missed, minlength=n) > 0
    return ~bool_product(miss, poset.leq.T)


def _reduced_relation(poset: FinPoset):
    """Every finite directed subset contains its supremum, so a counterexample
    can always be shrunk to a single element g with y <= g and not x <= g.
    On a transitive order, which ``FinPoset`` checked when it was built, that
    is the order itself: g = y gives x <= y, and transitivity the converse."""
    return poset.leq


def _cached_relation(poset: FinPoset, route):
    """The read-only matrix of one route, computed once per poset."""
    key = f"_way_below{route.__name__}"
    mat = poset.__dict__.get(key)
    if mat is None:
        mat = route(poset)
        mat.setflags(write=False)
        poset.__dict__[key] = mat
    return mat


def way_below_matrix(poset: FinPoset):
    """Entry (x, y) says x is way below y, by the route ``way_below`` takes."""
    if poset.n <= SUBSET_ENUM_LIMIT:
        return _cached_relation(poset, _enumerated_relation)
    return _cached_relation(poset, _reduced_relation)


def way_below_enumerated(poset: FinPoset, x, y) -> bool:
    """x way below y, checked over every directed subset of the carrier."""
    xi, yi = poset.index(x), poset.index(y)
    return bool(_cached_relation(poset, _enumerated_relation)[xi, yi])


def way_below_reduced(poset: FinPoset, x, y) -> bool:
    """x way below y by the greatest-element reduction."""
    xi, yi = poset.index(x), poset.index(y)
    return bool(_cached_relation(poset, _reduced_relation)[xi, yi])


def way_below(poset: FinPoset, x, y) -> bool:
    xi, yi = poset.index(x), poset.index(y)
    return bool(way_below_matrix(poset)[xi, yi])


def is_compact(poset: FinPoset, x) -> bool:
    """Way below itself."""
    return way_below(poset, x, x)


def compacts(poset: FinPoset):
    """All compact elements, canonical order.

    Also re-verifies, for every element, that it is the directed supremum of
    the compact elements below it (the algebraicity law; at this scale every
    element is compact, so the check must always go through).
    """
    diagonal = way_below_matrix(poset).diagonal()
    out = tuple(x for x, compact in zip(poset.elements, diagonal) if compact)
    compact_mask = poset.mask_of(out)
    for x, down in zip(poset.elements, _row_masks(poset.leq.T)):
        below = compact_mask & down
        if below and directed_sup(poset, below) != x:
            raise NotDirected(f"compacts below {x} do not reach it")
    return out


def compacts_closed_under_joins_check(poset: FinPoset) -> bool:
    """Whenever two compacts have a least upper bound, it is compact."""
    compacts(poset)
    diagonal = way_below_matrix(poset).diagonal()
    ks = np.flatnonzero(diagonal)
    lubs = poset.lub_table[np.ix_(ks, ks)]
    return bool(diagonal[lubs[lubs >= 0]].all())


def _family_names(fam):
    if hasattr(fam, "image_names"):
        return tuple(fam.image_names())
    return tuple(fam)


def approximates(poset: FinPoset, fam, x) -> bool:
    """The family's supremum is x and each member is way below x."""
    values = _family_names(fam)
    mask = poset.mask_of(values)
    if directed_sup(poset, mask) != x:
        return False
    return (mask & ~_row_masks(way_below_matrix(poset)[:, poset.index(x)])[0]) == 0


@dataclass(frozen=True)
class ContinuityData:
    """One approximating family per element, keyed by element name."""

    poset: FinPoset
    families: dict = field(default_factory=dict)

    def family(self, x):
        return tuple(self.families[x])


def check_continuity_data(poset: FinPoset, data: ContinuityData) -> bool:
    try:
        return all(approximates(poset, data.family(x), x) for x in poset.elements)
    except (NotDirected, KeyError):
        return False


@dataclass(frozen=True)
class BasisMap:
    """A map from an index set of labels into a host poset.

    Labels may be any hashables; ``into`` sends each label to an element name,
    and ``indices`` holds the host index of each label's value, in label
    order.  The smallness clauses of the definitions hold structurally at this
    scale (every carrier is finite and every predicate decidable), so they are
    recorded here rather than computed.
    """

    poset: FinPoset
    labels: tuple
    into: dict
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = np.array([self.poset.index(self.into[b]) for b in self.labels], dtype=np.intp)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def identity(cls, poset) -> "BasisMap":
        return cls(poset, tuple(poset.elements), {x: x for x in poset.elements})

    def value(self, label):
        return self.into[label]

    def hit_labels(self, hits) -> tuple:
        """Labels, in label order, whose value's index is set in a boolean
        array over the host."""
        return tuple(b for b, hit in zip(self.labels, hits[self.indices].tolist()) if hit)

    def way_fiber(self, x):
        """Labels whose value is way below x."""
        return self.hit_labels(way_below_matrix(self.poset)[:, self.poset.index(x)])

    def down_fiber(self, x):
        """Labels whose value is below x."""
        return self.hit_labels(self.poset.leq[:, self.poset.index(x)])

    def image_names(self):
        return tuple(self.into[b] for b in self.labels)


def _require_host(poset: FinPoset, basis: BasisMap):
    """``basis.indices`` are positions in ``basis.poset``, so a basis on any
    other host is refused rather than resolved by name."""
    if basis.poset is not poset and basis.poset != poset:
        raise ShapeMismatch("basis lives on a different poset")


def _fibers_ok(poset: FinPoset, indices, relation) -> bool:
    """For every x, the basis values related to x form a directed subset
    whose supremum is x.

    That holds exactly when x is itself in its fiber and every member lies
    below x: a greatest member bounds every pair and is the supremum.
    """
    image = np.zeros(poset.n, dtype=bool)
    image[indices] = True
    fibers = relation & image[:, None]
    return bool(fibers.diagonal().all() and not (fibers & ~poset.leq).any())


def check_small_basis(poset: FinPoset, basis: BasisMap) -> bool:
    """Every way-below fiber is directed with supremum the point itself."""
    _require_host(poset, basis)
    return _fibers_ok(poset, basis.indices, way_below_matrix(poset))


def check_small_compact_basis(poset: FinPoset, basis: BasisMap) -> bool:
    """A small basis of compact values, with the below-fibers checked directly."""
    if not check_small_basis(poset, basis):
        return False
    if not way_below_matrix(poset).diagonal()[basis.indices].all():
        return False
    return _fibers_ok(poset, basis.indices, poset.leq)


def basis_contains_all_compacts_check(poset: FinPoset, basis: BasisMap) -> bool:
    """A small compact basis must hit every compact element."""
    if not check_small_compact_basis(poset, basis):
        raise NotABasis("not a small compact basis")
    image = set(basis.image_names())
    return all(x in image for x in compacts(poset))


def leq_via_basis(poset: FinPoset, basis: BasisMap, x, y) -> bool:
    """Compare through the basis: every basis value way below x is way below y."""
    _require_host(poset, basis)
    rows = way_below_matrix(poset)[basis.indices]
    return bool((rows[:, poset.index(y)] | ~rows[:, poset.index(x)]).all())


def interpolate_unary(poset: FinPoset, basis: BasisMap, x, y):
    """A basis label strictly between x and y in the way-below order."""
    _require_host(poset, basis)
    xi, yi = poset.index(x), poset.index(y)
    wb = way_below_matrix(poset)
    if not wb[xi, yi]:
        raise PreconditionViolated(f"{x} is not way below {y}")
    hits = basis.hit_labels(wb[xi] & wb[:, yi])
    if not hits:
        raise NoInterpolant(f"no basis interpolant between {x} and {y}")
    return hits[0]


def interpolate_binary(poset: FinPoset, basis: BasisMap, x, y, z):
    _require_host(poset, basis)
    xi, yi, zi = poset.index(x), poset.index(y), poset.index(z)
    wb = way_below_matrix(poset)
    if not (wb[xi, zi] and wb[yi, zi]):
        raise PreconditionViolated(f"{x},{y} are not both way below {z}")
    hits = basis.hit_labels(wb[xi] & wb[yi] & wb[:, zi])
    if not hits:
        raise NoInterpolant(f"no basis interpolant for {x},{y} under {z}")
    return hits[0]


def _require_retract(section: MonoMap, retraction: MonoMap):
    failure = retract_failure(section, retraction)
    if failure is not None:
        raise NotARetract(f"section/retraction fail the {failure} law")


def transfer_basis_along_retract(
    section: MonoMap, retraction: MonoMap, basis: BasisMap
) -> BasisMap:
    """Push a small basis of the big poset down along the retraction.

    Only the retract laws are required, not the deflation law of an
    embedding-projection pair.
    """
    _require_retract(section, retraction)
    if not check_small_basis(section.target, basis):
        raise NotABasis("input is not a small basis for the big poset")
    return compose_basis(retraction, basis)


def retract_way_below_transfer_check(section: MonoMap, retraction: MonoMap, x=None, y=None) -> bool:
    """y way below section(x) forces retraction(y) way below x.

    With x and y omitted the implication is checked for all pairs.
    """
    _require_retract(section, retraction)
    small, big = section.source, section.target
    xs = np.arange(small.n) if x is None else np.array([small.index(x)])
    ys = np.arange(big.n) if y is None else np.array([big.index(y)])
    sx = np.asarray(section.graph, dtype=np.intp)[xs]
    ry = np.asarray(retraction.graph, dtype=np.intp)[ys]
    premise = way_below_matrix(big)[np.ix_(ys, sx)]
    conclusion = way_below_matrix(small)[np.ix_(ry, xs)]
    return not (premise & ~conclusion).any()


def exponential_locally_small_certificate(
    dom: FinPoset, basis: BasisMap, cod: FinPoset, f: MonoMap, g: MonoMap
) -> bool:
    """The basis-restricted comparison of two maps agrees with pointwise order."""
    _require_host(dom, basis)
    fg = np.asarray(f.graph, dtype=np.intp)
    gg = np.asarray(g.graph, dtype=np.intp)
    via_basis = cod.leq[fg[basis.indices], gg[basis.indices]].all()
    pointwise = cod.leq[fg, gg].all()
    return bool(via_basis == pointwise)


def compose_basis(after: MonoMap, basis: BasisMap) -> BasisMap:
    """Post-compose a basis with a map out of its host."""
    return BasisMap(
        after.target, basis.labels, {b: after.apply(basis.value(b)) for b in basis.labels}
    )
