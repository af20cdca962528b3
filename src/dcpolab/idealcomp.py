"""Abstract bases and their rounded ideal completions.

A finite abstract basis keeps its carrier as a tuple of hashable labels and
its transitive relation as a boolean matrix, and tabulates its principal
ideals once, from the columns of that matrix.  Ideals are frozensets of carrier
members; the completed poset names each ideal by the brace-wrapped, canonically
ordered member list.  ``idl_poset`` builds the completion once per basis
object and keeps it on the basis, with a table from each ideal to its name, so
later checks on the same basis reuse it and its poset's cached tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    CarrierTooLarge,
    DuplicateElement,
    NoJoins,
    NotABasis,
    NotMonotone,
    TooLarge,
    UnknownElement,
)
from .finposet import (
    SUBSET_ENUM_LIMIT,
    EpPair,
    FinPoset,
    MonoMap,
    _bits,
    _row_masks,
    bool_product,
    bounded_masks,
    directed_sup,
    is_order_isomorphism,
    is_scott_continuous,
    is_section,
    validate_ep_pair,
)
from .waybelow import BasisMap, check_small_basis, check_small_compact_basis, way_below_matrix


@dataclass(frozen=True, eq=False)
class AbstractBasis:
    """A carrier with a transitive relation satisfying interpolation.

    Equal, and hashed alike, when carriers and relation matrices agree."""

    carrier: tuple
    prec: np.ndarray

    def __post_init__(self):
        mat = np.array(self.prec, dtype=bool)
        n = len(self.carrier)
        if mat.shape != (n, n):
            raise UnknownElement("relation shape does not match carrier")
        mat.setflags(write=False)
        object.__setattr__(self, "prec", mat)

    @classmethod
    def from_pairs(cls, carrier, pairs) -> "AbstractBasis":
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise DuplicateElement(f"duplicate element among {carrier}")
        index = {c: i for i, c in enumerate(carrier)}
        mat = np.zeros((len(carrier), len(carrier)), dtype=bool)
        for a, b in pairs:
            if a not in index or b not in index:
                raise UnknownElement(f"pair {a!r}<{b!r} mentions an unknown element")
            mat[index[a], index[b]] = True
        return cls(carrier, mat)

    @property
    def n(self) -> int:
        return len(self.carrier)

    @cached_property
    def _index(self) -> dict:
        """Carrier position of each member; the first one wins, as in ``tuple.index``."""
        return {c: i for i, c in reversed(tuple(enumerate(self.carrier)))}

    def index(self, member) -> int:
        try:
            return self._index[member]
        except (KeyError, TypeError):
            raise UnknownElement(f"{member!r} is not in the carrier") from None

    def prec_holds(self, a, b) -> bool:
        return bool(self.prec[self.index(a), self.index(b)])

    def is_reflexive(self) -> bool:
        return bool(self.prec[np.diag_indices(self.n)].all()) if self.n else True

    @cached_property
    def _principal_ideals(self) -> tuple:
        """Entry j is {a | a < carrier[j]}, read off column j of ``prec``."""
        return tuple(frozenset(self.carrier[i] for i in np.flatnonzero(col)) for col in self.prec.T)

    @cached_property
    def names(self) -> tuple:
        if all(isinstance(c, str) for c in self.carrier) and len(set(self.carrier)) == self.n:
            return self.carrier
        return tuple(f"b{i}" for i in range(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, AbstractBasis)
            and self.carrier == other.carrier
            and self.prec.shape == other.prec.shape
            and bool((self.prec == other.prec).all())
        )

    def __hash__(self):
        return hash((self.carrier, self.prec.shape, self.prec.tobytes()))


def validate_abstract_basis(basis: AbstractBasis):
    """Transitivity plus nullary and binary interpolation, by exhaustion.

    Returns (True, None) or (False, counterexample) where the counterexample
    names the first failing axiom and its first witnesses in lexicographic
    index order: (a, b, c) with a < b < c but not a < c, then an element with
    nothing below it, then (b, a1, a2) with a1, a2 < b and nothing between.
    """
    rel, below, name = basis.prec, basis.prec.T, basis.carrier.__getitem__
    # [a, b, c]: a < b and b < c, but not a < c
    hit = _first_hit(basis.n, lambda lo, hi: rel[lo:hi, :, None] & rel & ~rel[lo:hi, None, :])
    if hit:
        return False, ("transitivity", *map(name, hit))
    hits = np.flatnonzero(~rel.any(axis=0))
    if len(hits):
        return False, ("nullary-interpolation", name(int(hits[0])))

    def unsplit(lo, hi):  # [b, a1, a2]: a1, a2 < b, and no c with a1 < c, a2 < c and c < b
        under = below[lo:hi, None, :]
        return under.transpose(0, 2, 1) & under & ~bool_product(rel & under, rel.T)

    hit = _first_hit(basis.n, unsplit)
    if hit:
        b, a1, a2 = hit
        return False, ("binary-interpolation", name(a1), name(a2), name(b))
    return True, None


_SLAB_CELLS = 1 << 22


def _first_hit(n: int, slab):
    """The first index triple, in lexicographic order, at which a boolean n-cube
    holds, or None.  ``slab(lo, hi)`` builds planes lo..hi-1, about
    ``_SLAB_CELLS`` cells at a time, so a large carrier costs time, not memory."""
    step = max(1, _SLAB_CELLS // max(n * n, 1))
    slabs = (np.argwhere(slab(lo, min(lo + step, n))) + (lo, 0, 0) for lo in range(0, n, step))
    return next((tuple(hits[0].tolist()) for hits in slabs if len(hits)), None)


def _ideal_masks(basis: AbstractBasis, masks=None):
    """The subset masks that are ideals, every subset of the carrier by default.

    A mask passes when it is inhabited, down-closed under ``prec``, and every
    pair b1 <= b2 of its members, b1 == b2 included, lies under a member.  The
    diagonal pair puts each member under another, so every ideal is rounded.
    """
    n, rel = basis.n, basis.prec
    if masks is None:
        if n > SUBSET_ENUM_LIMIT:
            raise CarrierTooLarge(
                f"carrier of {n} labels exceeds the subset-scan bound"
                f" SUBSET_ENUM_LIMIT ({SUBSET_ENUM_LIMIT})"
            )
        masks = np.arange(1 << n, dtype=np.int64)
    masks = masks[masks != 0]
    for b, down in enumerate(_row_masks(rel.T)):
        masks = masks[(((masks >> b) & 1) == 0) | ((masks & down) == down)]
    return bounded_masks(masks, _row_masks(rel), combinations_with_replacement(range(n), 2))


def _members(basis: AbstractBasis, mask: int) -> frozenset:
    return frozenset(basis.carrier[i] for i in _bits(mask))


def is_ideal(basis: AbstractBasis, subset) -> bool:
    """A directed lower set with respect to the basis relation."""
    mask = sum(1 << i for i in {basis.index(member) for member in subset})
    # int64 holds the masks of up to 62 members; past that they stay Python ints.
    masks = np.array([mask], dtype=np.int64 if basis.n < 63 else object)
    return len(_ideal_masks(basis, masks)) == 1


def principal_ideal(basis: AbstractBasis, member) -> frozenset:
    """Everything strictly under the member: {a | a < member}."""
    return basis._principal_ideals[basis.index(member)]


def ideal_is_rounded(basis: AbstractBasis, ideal) -> bool:
    return all(any(basis.prec_holds(a, b) for b in ideal) for a in ideal)


def enumerate_ideals(basis: AbstractBasis):
    """All ideals of a finite basis, in ascending bitmask order."""
    return [_members(basis, m) for m in _ideal_masks(basis).tolist()]


def ideal_name(basis: AbstractBasis, ideal) -> str:
    ordered = sorted(basis.index(m) for m in ideal)
    return "{" + ",".join(basis.names[i] for i in ordered) + "}"


@dataclass(frozen=True)
class IdealCompletion:
    basis: AbstractBasis
    ideals: tuple
    poset: FinPoset

    def name_of(self, ideal) -> str:
        try:
            return self._names[ideal]
        except (KeyError, TypeError):  # not an ideal of this basis, or unhashable
            return ideal_name(self.basis, ideal)

    @cached_property
    def _names(self) -> dict:
        """Each ideal's name: ``poset.elements`` lists them in ``ideals`` order."""
        return dict(zip(self.ideals, self.poset.elements))

    def principal_basis(self) -> BasisMap:
        """The principal-ideal map, as a basis candidate for the completion."""
        into = {b: self.name_of(principal_ideal(self.basis, b)) for b in self.basis.carrier}
        return BasisMap(self.poset, tuple(self.basis.carrier), into)


def idl_poset(basis: AbstractBasis) -> IdealCompletion:
    """The ideals ordered by inclusion, as a finite poset.

    Every ideal is rounded, since the ideal filter bounds each member by
    another (its b1 == b2 pair clause, the predicate of ``ideal_is_rounded``).
    Directed unions of ideals need no check: a finite directed set of ideals
    holds its greatest member, so its union is that ideal.

    Built once per basis object and kept on it, as ``FinPoset`` keeps its
    tables, so the completion, its poset and their tables are shared by every
    later call on the same basis.
    """
    completion = basis.__dict__.get("_completion")
    if completion is None:
        im = _ideal_masks(basis)
        ideals = tuple(_members(basis, m) for m in im.tolist())
        names = tuple(ideal_name(basis, ideal) for ideal in ideals)
        poset = FinPoset(names, (im[:, None] & ~im[None, :]) == 0)
        completion = basis.__dict__["_completion"] = IdealCompletion(basis, ideals, poset)
    return completion


def idl_way_below(basis: AbstractBasis, i_ideal, j_ideal) -> bool:
    """Way-below between ideals via the characterisation: some member of the
    right ideal bounds the whole left ideal."""
    return any(i_ideal <= principal_ideal(basis, b) for b in j_ideal)


def idl_basis_check(basis: AbstractBasis) -> bool:
    """Principal ideals form a small basis; a compact one when reflexive."""
    completion = idl_poset(basis)
    beta = completion.principal_basis()
    if not check_small_basis(completion.poset, beta):
        return False
    return not basis.is_reflexive() or check_small_compact_basis(completion.poset, beta)


def mediating_map(completion: IdealCompletion, assignment, target: FinPoset) -> MonoMap:
    """Extend a monotone basis assignment to the whole completion.

    Sends an ideal to the directed supremum of the images of its members; the
    result is Scott continuous, and it is the unique continuous extension when
    the basis relation is reflexive.
    """
    basis = completion.basis
    getter = assignment.__getitem__ if hasattr(assignment, "__getitem__") else assignment
    values = {b: getter(b) for b in basis.carrier}
    v = [target.index(values[b]) for b in basis.carrier]
    broken = np.argwhere(basis.prec & ~target.leq[np.ix_(v, v)])
    if len(broken):
        a, b = (basis.carrier[i] for i in broken[0])
        raise NotMonotone(f"assignment breaks monotonicity at {a!r} < {b!r}")
    bit = {b: 1 << i for b, i in zip(basis.carrier, v)}
    # The image of an ideal as a target mask: the sum of its distinct bits.
    sups = (directed_sup(target, sum({bit[m] for m in ideal})) for ideal in completion.ideals)
    out = MonoMap(completion.poset, target, [target.index(sup) for sup in sups])
    if not is_scott_continuous(out):
        raise NotMonotone("extension failed to be continuous")
    if basis.is_reflexive():
        for b in basis.carrier:
            if out.apply(completion.name_of(principal_ideal(basis, b))) != values[b]:
                raise NotMonotone(f"extension misses the assignment at {b!r}")
    return out


def directify(poset: FinPoset, fam) -> "DirectedFamily":
    """Close a family under finite joins, indexing by deduplicated subsets.

    Finite lists of indices all collapse to their member sets because joins
    are associative, commutative and idempotent; the empty subset contributes
    the least element.
    """
    from .indcomp import DirectedFamily

    if poset.bottom is None or not (poset.lub_table >= 0).all():
        raise NoJoins("host poset lacks a least element or binary joins")
    if hasattr(fam, "labels"):
        base = [(label, fam.value(label)) for label in fam.labels]
    else:
        base = list(fam.items())
    first = {}
    for label, value in base:
        first.setdefault(value, label)
    deduped = [(label, value) for value, label in first.items()]
    if len(deduped) > SUBSET_ENUM_LIMIT:
        raise TooLarge(
            f"directification of {len(deduped)} values exceeds SUBSET_ENUM_LIMIT"
            f" ({SUBSET_ENUM_LIMIT})"
        )
    # Doubling: subset 2^i + m adds the i-th value to subset m, so its join is
    # one gather off the join of m.
    labels, joins = [()], np.array([poset.bottom], dtype=np.intp)
    for label, value in deduped:
        labels += [subset + (label,) for subset in labels]
        joins = np.concatenate([joins, poset.lub_table[joins, poset.index(value)]])
    mapping = dict(zip(labels, (poset.elements[j] for j in joins.tolist())))
    return DirectedFamily(poset, tuple(labels), mapping)


def basis_from_waybelow(poset: FinPoset, beta: BasisMap) -> AbstractBasis:
    """Turn a small basis into an abstract basis under the way-below relation."""
    return _basis_from_relation(poset, beta, use_way_below=True)


def basis_from_order(poset: FinPoset, beta: BasisMap) -> AbstractBasis:
    """Turn a small basis into an abstract basis under the order relation."""
    return _basis_from_relation(poset, beta, use_way_below=False)


def _basis_from_relation(poset, beta, *, use_way_below) -> AbstractBasis:
    if not check_small_basis(poset, beta):
        raise NotABasis("input is not a small basis")
    relation = way_below_matrix(poset) if use_way_below else poset.leq
    out = AbstractBasis(tuple(beta.labels), relation[np.ix_(beta.indices, beta.indices)])
    ok, witness = validate_abstract_basis(out)
    if not ok:
        raise NotABasis(f"derived relation is not an abstract basis: {witness}")
    return out


def idl_ep_pair(poset: FinPoset, beta: BasisMap, *, use_way_below):
    """The fiber map into the completion and the supremum map back."""
    ab = _basis_from_relation(poset, beta, use_way_below=use_way_below)
    completion = idl_poset(ab)
    graph = []
    for x in poset.elements:
        fiber = frozenset(beta.way_fiber(x))
        try:
            graph.append(completion.poset.index(completion.name_of(fiber)))
        except UnknownElement:
            raise NotABasis(f"fiber of {x} is not an ideal of the derived basis") from None
    section = MonoMap(poset, completion.poset, graph)
    retraction = mediating_map(completion, {b: beta.value(b) for b in ab.carrier}, poset)
    return EpPair(embed=section, project=retraction), completion


def idl_iso_continuous_check(poset: FinPoset, beta: BasisMap) -> bool:
    """The fiber map onto the way-below completion is an order-isomorphism."""
    pair, _ = idl_ep_pair(poset, beta, use_way_below=True)
    s, r = pair.embed, pair.project
    return is_order_isomorphism(s) and is_section(s, r) and is_section(r, s)


def idl_iso_algebraic_check(poset: FinPoset, beta: BasisMap) -> bool:
    """The fiber map into the order completion embeds; iso for compact bases."""
    pair, _ = idl_ep_pair(poset, beta, use_way_below=False)
    if not validate_ep_pair(pair):
        return False
    return not check_small_compact_basis(poset, beta) or is_order_isomorphism(pair.embed)
