"""Finite posets with a dense boolean order matrix, plus the maps between them.

Elements are string identifiers; the canonical order is construction order and
every enumeration in the package iterates in it, so all outputs are
deterministic.  Subsets travel as machine-word bitmasks keyed to the canonical
order, which makes subset enumeration (the hot loop of everything downstream)
a vectorised pass over ``numpy`` integer arrays.
"""

from __future__ import annotations

import gc
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateElement,
    InvalidPoset,
    NotDirected,
    NotMonotone,
    ShapeMismatch,
    TooLarge,
    UnknownElement,
)

# Hard cap for materialising all 2^n subsets of a carrier.
SUBSET_ENUM_LIMIT = 16


def bool_product(a, b):
    """The boolean product ``a @ b`` of 0/1 arrays, stacks broadcast as in ``@``.

    numpy runs ``@`` on ``bool`` as a plain loop.  Counting in float32 runs in
    BLAS, and is exact while no count reaches 2^24, far past desk scale."""
    return a.astype(np.float32) @ b.astype(np.float32) > 0


class FinPoset:
    """An immutable finite poset over named elements.

    ``leq`` is an n-by-n boolean matrix in canonical element order;
    it is validated to be reflexive, transitive and antisymmetric.  Everything
    else the poset offers is derived from that matrix.
    """

    __slots__ = ("elements", "n", "leq", "_index", "__dict__")

    def __init__(self, elements, leq):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise DuplicateElement(f"duplicate element among {elements}")
        n = len(elements)
        mat = np.array(leq, dtype=bool).reshape((n, n)) if n else np.zeros((0, 0), bool)
        if n:
            if not mat[np.diag_indices(n)].all():
                raise InvalidPoset("order is not reflexive")
            if (mat & mat.T & ~np.eye(n, dtype=bool)).any():
                raise InvalidPoset("order is not antisymmetric")
            if (bool_product(mat, mat) & ~mat).any():
                raise InvalidPoset("order is not transitive")
        mat.setflags(write=False)
        self.elements = elements
        self.n = n
        self.leq = mat
        self._index = {name: i for i, name in enumerate(elements)}

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"{name!r} is not an element") from None

    def le(self, x, y) -> bool:
        """Decide x below-or-equal y, by name."""
        return bool(self.leq[self.index(x), self.index(y)])

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, subset) -> int:
        """Coerce a subset (bitmask or iterable of names) to a bitmask."""
        if isinstance(subset, int):
            if subset < 0 or subset > self.full_mask():
                raise UnknownElement(f"mask {subset:#x} out of range")
            return subset
        mask = 0
        for name in subset:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple:
        return tuple(self.elements[i] for i in _bits(mask))

    @cached_property
    def up_masks(self) -> list:
        """Entry i is the up-set of i as a bitmask, for the subset routines."""
        return _row_masks(self.leq)

    @cached_property
    def cover_matrix(self):
        """The Hasse diagram: entry (i, j) says j covers i, that is i < j with
        nothing strictly between."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        mat = lt & ~bool_product(lt, lt)
        mat.setflags(write=False)
        return mat

    def covers(self):
        """Cover pairs (lower, upper) of the Hasse diagram, canonical order."""
        pairs = np.argwhere(self.cover_matrix).tolist()
        return [(self.elements[i], self.elements[j]) for i, j in pairs]

    @cached_property
    def bottom(self):
        """Index of the least element, or None."""
        least = np.flatnonzero(self.leq.all(axis=1))
        return int(least[0]) if len(least) else None

    @cached_property
    def lub_table(self):
        """n-by-n table of least-upper-bound indices, -1 where none exists.

        The join of i and j is the element whose up-set is the intersection of
        theirs: it bounds both, and it lies below everything that does."""
        up = self.up_masks
        owner = {mask: u for u, mask in enumerate(up)}
        table = np.array([owner.get(a & b, -1) for a in up for b in up], dtype=np.int64)
        table = table.reshape(self.n, self.n)
        table.setflags(write=False)
        return table

    def is_lattice(self) -> bool:
        """Pointed with all binary joins; at finite scale that settles meets too."""
        return self.n > 0 and self.bottom is not None and (self.lub_table >= 0).all()

    @cached_property
    def directed_table(self):
        """All directed subset masks paired with the index of their greatest member.

        Vectorised over every subset of the carrier; guarded so that no caller
        silently asks for 2^n past the desk-scale budget.
        """
        n = self.n
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if n > SUBSET_ENUM_LIMIT:
            raise TooLarge(
                f"2^{n} subsets of {n} elements exceed SUBSET_ENUM_LIMIT ({SUBSET_ENUM_LIMIT})"
            )
        # Masks holding two members with no common upper bound among the
        # members are dropped; the larger of two comparable members bounds both.
        dmasks = bounded_masks(
            np.arange(1, 1 << n, dtype=np.int64), self.up_masks, combinations(range(n), 2)
        )
        sups = np.full(dmasks.shape, -1, dtype=np.int64)
        for g, not_below in enumerate(_row_masks(~self.leq.T)):
            # g is a member and every member is below g.
            sups[(dmasks & (not_below | (1 << g))) == 1 << g] = g
        if (sups < 0).any():
            raise InvalidPoset("a directed subset without greatest element")
        dmasks.setflags(write=False)
        sups.setflags(write=False)
        return dmasks, sups

    def __repr__(self):
        return f"FinPoset({list(self.elements)!r}, covers={self.covers()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and self.elements == other.elements
            and bool((self.leq == other.leq).all())
        )

    def __hash__(self):
        return hash((self.elements, self.leq.tobytes()))


def _row_masks(mat) -> list:
    """The bitmask of each row of a boolean matrix, or of one boolean row:
    bit j of entry i is set when ``mat[i, j]`` is."""
    packed = np.packbits(np.atleast_2d(mat), axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def bounded_masks(masks, up, pairs):
    """The subset masks in which every listed pair of members has a common
    upper bound among the members.

    ``up[k]`` is the mask of everything above k under the relation at hand,
    and ``pairs`` lists index pairs (i, j) in ascending i.  A mask fails on
    (i, j) when it holds both and none of ``up[i] & up[j]``.  When that bound
    set meets the pair itself, every mask holding the pair holds a bound, so
    the pair is skipped; otherwise a mask fails exactly when its bits among
    ``pair | ub`` are ``pair``.  Failing masks are dropped after each i, which
    keeps the survivors in ascending order and shortens the later scans.
    """
    current, ok = None, None
    for i, j in pairs:
        if i != current:
            if ok is not None:
                masks = masks[ok]
            current, ok = i, None
        pair = (1 << i) | (1 << j)
        ub = up[i] & up[j]
        if ub & pair:
            continue
        bounded = (masks & (pair | ub)) != pair
        ok = bounded if ok is None else ok & bounded
    return masks if ok is None else masks[ok]


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def closure_from_covers(elements, covers) -> FinPoset:
    """Build a poset as the reflexive-transitive closure of cover pairs."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement(f"duplicate element among {elements}")
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)
    mat = np.eye(n, dtype=bool)
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise UnknownElement(f"cover {lo}<{hi} mentions an unknown element")
        mat[index[lo], index[hi]] = True
    for _ in range(max(n, 1)):
        new = mat | bool_product(mat, mat)
        if (new == mat).all():
            break
        mat = new
    if (mat & mat.T & ~np.eye(n, dtype=bool)).any():
        raise CycleDetected("cover relation contains a cycle")
    return FinPoset(elements, mat)


def componentwise_leq(coords, rows):
    """The order on rows of element indices, coordinate by coordinate.

    Row a is below row b when ``coords[c].leq[a[c], b[c]]`` holds for every
    coordinate c; with no coordinates every pair of rows is related.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(len(rows), len(coords))
    out = np.ones((len(rows), len(rows)), dtype=bool)
    for c, poset in enumerate(coords):
        col = rows[:, c]
        out &= poset.leq[np.ix_(col, col)]
    return out


def subposet(poset: FinPoset, names) -> FinPoset:
    """The induced sub-poset on the given elements (canonical order kept)."""
    keep = [poset.index(x) for x in names]
    order = sorted(keep)
    sub = poset.leq[np.ix_(order, order)]
    return FinPoset(tuple(poset.elements[i] for i in order), sub)


def is_directed(poset: FinPoset, subset) -> bool:
    """Inhabited, and every pair of members has an upper bound among members."""
    mask = poset.mask_of(subset)
    if mask == 0:
        return False
    up = poset.up_masks
    members = list(_bits(mask))
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if mask & up[members[a]] & up[members[b]] == 0:
                return False
    return True


def directed_sup(poset: FinPoset, subset):
    """Greatest member of a directed subset; equals its least upper bound."""
    mask = poset.mask_of(subset)
    if not is_directed(poset, mask):
        raise NotDirected(f"{poset.names_of(mask)} is not directed")
    # A finite directed subset holds its greatest member: its one upper bound in it.
    return poset.elements[(mask & upper_bounds_mask(poset, mask)).bit_length() - 1]


def upper_bounds_mask(poset: FinPoset, subset) -> int:
    """Bitmask of common upper bounds of a subset (full mask when empty)."""
    mask = poset.mask_of(subset)
    ubs, up = poset.full_mask(), poset.up_masks
    for i in _bits(mask):
        ubs &= up[i]
    return ubs


# Rows per ``tolist`` call in ``MonoMap.from_rows``.
_ROW_CHUNK = 4096


def _require_assignment(source: FinPoset, target: FinPoset, width, bounds):
    """Refuse graphs that are not ``source.n`` wide or whose values, spanning
    ``bounds`` = (least, greatest), or None when there are none, are not
    target indices."""
    if width != source.n or bounds is not None and not 0 <= bounds[0] <= bounds[1] < target.n:
        raise ShapeMismatch("graph does not assign every source element")


class MonoMap:
    """A monotone total map between finite posets, stored as an index graph."""

    __slots__ = ("source", "target", "graph")

    def __init__(self, source: FinPoset, target: FinPoset, graph, *, check=True):
        graph = tuple(map(int, graph))
        _require_assignment(source, target, len(graph), (min(graph), max(graph)) if graph else None)
        if check and not _graph_is_monotone(source, target, graph):
            raise NotMonotone("assignment is not monotone")
        self._fill(source, target, graph)

    def _fill(self, source: FinPoset, target: FinPoset, graph: tuple):
        """The one place the slots are set, from a tuple of ints already checked."""
        self.source, self.target, self.graph = source, target, graph

    @classmethod
    def from_rows(cls, source: FinPoset, target: FinPoset, graphs) -> list:
        """One map per row of an integer ``(m, source.n)`` array of graphs
        already known to be monotone, in row order.

        Shape and value range are checked once for the whole array, which
        raises ``ShapeMismatch`` wherever the per-row constructor would.  Rows
        are converted ``_ROW_CHUNK`` at a time, column lists zipped into
        tuples, so no list of every row lives beside the maps.

        The cyclic collector is paused while the maps are built: each map
        refers to two posets and a tuple of ints, and nothing refers back,
        so the many container allocations here form no cycle for it to find.
        Its prior state is restored however the loop ends.
        """
        graphs = np.asarray(graphs, dtype=np.intp)
        width = graphs.shape[1] if graphs.ndim == 2 else None
        _require_assignment(source, target, width, (graphs.min(), graphs.max()) if graphs.size else None)
        out, new, fill = [], object.__new__, cls._fill
        collecting = gc.isenabled()
        gc.disable()
        try:
            for lo in range(0, len(graphs), _ROW_CHUNK):
                chunk = graphs[lo : lo + _ROW_CHUNK]
                rows = zip(*chunk.T.tolist()) if width else [()] * len(chunk)  # zip() of no columns is empty
                for g in rows:
                    m = new(cls)
                    fill(m, source, target, g)
                    out.append(m)
        finally:
            if collecting:
                gc.enable()
        return out

    @classmethod
    def from_mapping(cls, source, target, mapping) -> "MonoMap":
        getter = mapping.__getitem__ if hasattr(mapping, "__getitem__") else mapping
        return cls(source, target, tuple(target.index(getter(x)) for x in source.elements))

    @classmethod
    def identity(cls, poset) -> "MonoMap":
        return cls(poset, poset, range(poset.n), check=False)

    def apply(self, name):
        return self.target.elements[self.graph[self.source.index(name)]]

    def __eq__(self, other):
        return (
            isinstance(other, MonoMap)
            and self.source == other.source
            and self.target == other.target
            and self.graph == other.graph
        )

    def __hash__(self):
        return hash((self.source.n, self.target.n, self.graph))

    def __repr__(self):
        pairs = ", ".join(
            f"{x}->{self.target.elements[g]}" for x, g in zip(self.source.elements, self.graph)
        )
        return f"MonoMap({pairs})"


def _pulled_back(relation, graph):
    """A relation on the target read along a graph: entry (i, j) is
    ``relation[graph[i], graph[j]]``."""
    g = np.asarray(graph, dtype=np.intp)
    return relation[np.ix_(g, g)]


def _graph_is_monotone(source, target, graph) -> bool:
    return not (source.leq & ~_pulled_back(target.leq, graph)).any()


def is_order_isomorphism(f: MonoMap) -> bool:
    """Bijective, and x <= y exactly when f(x) <= f(y)."""
    return (
        f.source.n == f.target.n
        and len(set(f.graph)) == f.target.n
        and bool((f.source.leq == _pulled_back(f.target.leq, f.graph)).all())
    )


def mono_compose(outer: MonoMap, inner: MonoMap) -> MonoMap:
    """outer after inner."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ShapeMismatch("composition shapes do not align")
    return MonoMap(
        inner.source, outer.target, tuple(outer.graph[g] for g in inner.graph), check=False
    )


def scott_continuity_of_graph(source, target, graph) -> bool:
    """Monotone and preserving directed suprema; works on unchecked graphs.

    The directed-sup clause is decided on every directed subset S of the
    source, with no appeal to monotonicity: its supremum s is a member of S,
    and f(x) <= f(s) for every member x.  Then f(s) is a member of f[S] that
    bounds it, so f(s) is the supremum of f[S].  The second condition says
    that S lies inside the mask of the x with f(x) <= f(s): one gather of a
    mask per subset, with no matrix product.
    """
    g = np.asarray(graph, dtype=np.intp)
    if not _graph_is_monotone(source, target, g):
        return False
    dmasks, sups = source.directed_table
    # bit x of entry s: f(x) <= f(s)
    below = np.array(_row_masks(_pulled_back(target.leq, g).T), dtype=np.int64)
    return bool(((dmasks >> sups) & 1).all() and not (dmasks & ~below[sups]).any())


def is_scott_continuous(f: MonoMap) -> bool:
    """On finite posets this coincides with monotonicity; checked literally."""
    return scott_continuity_of_graph(f.source, f.target, f.graph)


class EpPair:
    """A section/retraction pair whose round trip on the big side deflates."""

    __slots__ = ("embed", "project")

    def __init__(self, embed: MonoMap, project: MonoMap):
        self.embed = embed
        self.project = project

    def __repr__(self):
        return f"EpPair(embed={self.embed!r}, project={self.project!r})"


def _after(outer: MonoMap, inner: MonoMap):
    """The graph of outer after inner, as an index array."""
    return np.asarray(outer.graph, dtype=np.intp)[np.asarray(inner.graph, dtype=np.intp)]


def is_section(section: MonoMap, retraction: MonoMap) -> bool:
    """Retraction after section is the identity.  The caller aligns the
    endpoints: the retraction's source is the section's target."""
    return bool((_after(retraction, section) == np.arange(section.source.n)).all())


def retract_failure(section: MonoMap, retraction: MonoMap):
    """The first retract law that fails, or None when all hold.

    The laws, in order: ``"endpoints"`` (the section's source is the
    retraction's target and vice versa), ``"section"`` (retraction after
    section is the identity) and ``"continuity"`` (of both halves).
    """
    if section.source != retraction.target or section.target != retraction.source:
        return "endpoints"
    if not is_section(section, retraction):
        return "section"
    if not (is_scott_continuous(section) and is_scott_continuous(retraction)):
        return "continuity"
    return None


def validate_ep_pair(pair: EpPair) -> bool:
    """The retract laws plus the deflation law: section after retraction is
    below the identity."""
    e, p = pair.embed, pair.project
    failure = retract_failure(e, p)
    if failure == "endpoints":
        raise ShapeMismatch("embed/project endpoints do not align")
    if failure is not None:
        return False
    return bool(e.target.leq[_after(e, p), np.arange(e.target.n)].all())
