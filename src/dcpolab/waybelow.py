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
up-set of x.  The reduced route is one boolean product: x is way below y when
every g above y is above x.
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
)
from .finposet import (
    SUBSET_ENUM_LIMIT,
    FinPoset,
    MonoMap,
    directed_sup,
    is_directed,
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
        missed = sups[(dmasks & poset.above_int[x]) == 0]
        miss[x] = np.bincount(missed, minlength=n) > 0
    return ~(miss @ poset.leq.T)


def _reduced_relation(poset: FinPoset):
    """Every finite directed subset contains its supremum, so a counterexample
    can always be shrunk to a single element g with y <= g and not x <= g."""
    return ~(~poset.leq @ poset.leq.T)


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
    for i, x in enumerate(poset.elements):
        below = compact_mask & poset.below_int[i]
        if below and directed_sup(poset, below) != x:
            raise NotDirected(f"compacts below {x} do not reach it")
    return out


def compacts_closed_under_joins_check(poset: FinPoset) -> bool:
    """Whenever two compacts have a least upper bound, it is compact."""
    ks = compacts(poset)
    for x in ks:
        for y in ks:
            ubs = poset.above_int[poset.index(x)] & poset.above_int[poset.index(y)]
            lub = poset.least_in(ubs)
            if lub is not None and not is_compact(poset, poset.elements[lub]):
                return False
    return True


def _family_names(fam):
    if hasattr(fam, "image_names"):
        return tuple(fam.image_names())
    return tuple(fam)


def approximates(poset: FinPoset, fam, x) -> bool:
    """The family's supremum is x and each member is way below x."""
    values = _family_names(fam)
    mask = poset.mask_of(values)
    if not is_directed(poset, mask):
        raise NotDirected(f"{values} is not directed")
    if directed_sup(poset, mask) != x:
        return False
    return all(way_below(poset, v, x) for v in values)


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

    Labels may be any hashables; ``into`` sends each label to an element name.
    The smallness clauses of the definitions hold structurally at this scale
    (every carrier is finite and every predicate decidable), so they are
    recorded here rather than computed.
    """

    poset: FinPoset
    labels: tuple
    into: dict

    def __post_init__(self):
        for b in self.labels:
            self.poset.index(self.into[b])

    @classmethod
    def identity(cls, poset) -> "BasisMap":
        return cls(poset, tuple(poset.elements), {x: x for x in poset.elements})

    def value(self, label):
        return self.into[label]

    def way_fiber(self, x):
        """Labels whose value is way below x."""
        below_x = way_below_matrix(self.poset)[:, self.poset.index(x)]
        return tuple(_hit_labels(self.poset, self, below_x))

    def down_fiber(self, x):
        """Labels whose value is below x."""
        xi = self.poset.index(x)
        return tuple(
            b for b in self.labels if self.poset.leq[self.poset.index(self.into[b]), xi]
        )

    def image_names(self):
        return tuple(self.into[b] for b in self.labels)


def _fiber_ok(poset, basis, labels, x) -> bool:
    mask = poset.mask_of(basis.value(b) for b in labels)
    return mask != 0 and is_directed(poset, mask) and directed_sup(poset, mask) == x


def check_small_basis(poset: FinPoset, basis: BasisMap) -> bool:
    """Every way-below fiber is directed with supremum the point itself."""
    return all(_fiber_ok(poset, basis, basis.way_fiber(x), x) for x in poset.elements)


def check_small_compact_basis(poset: FinPoset, basis: BasisMap) -> bool:
    """A small basis of compact values, with the below-fibers checked directly."""
    if not check_small_basis(poset, basis):
        return False
    if not all(is_compact(poset, basis.value(b)) for b in basis.labels):
        return False
    return all(_fiber_ok(poset, basis, basis.down_fiber(x), x) for x in poset.elements)


def basis_contains_all_compacts_check(poset: FinPoset, basis: BasisMap) -> bool:
    """A small compact basis must hit every compact element."""
    if not check_small_compact_basis(poset, basis):
        raise NotABasis("not a small compact basis")
    image = set(basis.image_names())
    return all(x in image for x in compacts(poset))


def leq_via_basis(poset: FinPoset, basis: BasisMap, x, y) -> bool:
    """Compare through the basis: every basis value way below x is way below y."""
    return all(
        way_below(poset, basis.value(b), y)
        for b in basis.labels
        if way_below(poset, basis.value(b), x)
    )


def _hit_labels(poset: FinPoset, basis: BasisMap, hits):
    """Labels, in ``basis.labels`` order, whose value's index is set in hits."""
    return (b for b in basis.labels if hits[poset.index(basis.value(b))])


def interpolate_unary(poset: FinPoset, basis: BasisMap, x, y):
    """A basis label strictly between x and y in the way-below order."""
    xi, yi = poset.index(x), poset.index(y)
    wb = way_below_matrix(poset)
    if not wb[xi, yi]:
        raise PreconditionViolated(f"{x} is not way below {y}")
    for b in _hit_labels(poset, basis, wb[xi] & wb[:, yi]):
        return b
    raise NoInterpolant(f"no basis interpolant between {x} and {y}")


def interpolate_binary(poset: FinPoset, basis: BasisMap, x, y, z):
    xi, yi, zi = poset.index(x), poset.index(y), poset.index(z)
    wb = way_below_matrix(poset)
    if not (wb[xi, zi] and wb[yi, zi]):
        raise PreconditionViolated(f"{x},{y} are not both way below {z}")
    for b in _hit_labels(poset, basis, wb[xi] & wb[yi] & wb[:, zi]):
        return b
    raise NoInterpolant(f"no basis interpolant for {x},{y} under {z}")


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
    xs = [x] if x is not None else list(small.elements)
    ys = [y] if y is not None else list(big.elements)
    for a in xs:
        sx = section.apply(a)
        for b in ys:
            if way_below(big, b, sx) and not way_below(small, retraction.apply(b), a):
                return False
    return True


def exponential_locally_small_certificate(
    dom: FinPoset, basis: BasisMap, cod: FinPoset, f: MonoMap, g: MonoMap
) -> bool:
    """The basis-restricted comparison of two maps agrees with pointwise order."""
    via_basis = all(cod.le(f.apply(basis.value(b)), g.apply(basis.value(b))) for b in basis.labels)
    pointwise = all(cod.leq[f.graph[i], g.graph[i]] for i in range(dom.n))
    return via_basis == pointwise


def compose_basis(after: MonoMap, basis: BasisMap) -> BasisMap:
    """Post-compose a basis with a map out of its host."""
    return BasisMap(
        after.target, basis.labels, {b: after.apply(basis.value(b)) for b in basis.labels}
    )
