"""Exponentials of finite posets, step functions, and their bases.

The carrier of an exponential is one sorted array of monotone-map graphs,
grown level by level along a linear extension of the source: a partial row
keeps a value when it lies above the values of every predecessor.  Elements
are named ``f0, f1, ...`` in the row order of that array.  Each source
poset keeps the exponentials taken from it, so a step basis, a tower stage
and a retract read the carrier an earlier call built.

Step functions use the decidable case split (value above the threshold,
bottom elsewhere); on a decidable order this agrees with the
subsingleton-supremum formulation (README, "finite semantics").

Directified bases index by subsets of the single-step index, further
normalised to one saturated subset per achievable join: finite lists of
generators collapse to their member sets because joins are associative,
commutative and idempotent, and subsets with the same join collapse to the
largest of them.  Over a lattice an element is in the join closure of the
generators exactly when it is the join of those below it (bottom, the empty
join, included), so the closure is read off the candidates with no fixpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotALattice, PreconditionViolated, TooLarge
from .finposet import FinPoset, MonoMap, bool_product, componentwise_leq
from .idealcomp import basis_from_order, idl_ep_pair, idl_poset
from .waybelow import BasisMap, check_small_basis, is_compact

NODE_BUDGET = 10_000_000

# A pointwise-order matrix on more maps than this is past desk scale.
CARRIER_BUDGET = 5000


def monotone_graphs(D: FinPoset, E: FinPoset, node_budget: int = NODE_BUDGET) -> np.ndarray:
    """Exactly the monotone graphs D -> E: a read-only ``(m, D.n)`` array,
    one row per map, sorted lexicographically.

    The rows grow one source element at a time along a linear extension; a
    partial row takes value e when the values of x's lower covers lie below
    e.  Partial rows are monotone already, so that is the same filter as
    over every predecessor.  Each kept partial row counts as one search node
    against the budget, which is checked before a level is allocated.
    A level decides its values in blocks, each one array pass over every
    parent row (``_grown_level``).  A level keeps only its parent links and
    values, and carries forward just the columns that a later lower cover
    reads; the full rows are assembled once, walking the links backwards.

    Each level is laid out row-major, by parent row and then by value, so
    sorted parents give sorted children.  When the element order is itself
    a linear extension (every cover pair rises in it, as for every exponential,
    tower stage and bilimit, whose elements are named in sorted graph
    order), the growth runs in that order and the rows come out sorted.
    Otherwise it runs fewest elements below first, ties in element order,
    and the rows are sorted at the end.
    """
    lower, upper = np.nonzero(D.cover_matrix)
    in_order = bool((lower < upper).all())
    topo = list(range(D.n)) if in_order else np.argsort(D.leq.sum(axis=0), kind="stable").tolist()
    column = {x: k for k, x in enumerate(topo)}
    covers = [[] for _ in range(D.n)]
    for c, x in zip(lower.tolist(), upper.tolist()):
        covers[x].append(column[c])
    last_read = {j: k for k, x in enumerate(topo) for j in covers[x]}
    live, levels, n_rows, nodes = {}, [], 1, 0
    for k, x in enumerate(topo):
        below = [live[j] for j in covers[x]]
        parents, values, nodes = _grown_level(n_rows, below, E.leq, nodes, node_budget)
        live = {j: col[parents] for j, col in live.items() if last_read[j] > k}
        if k in last_read:
            live[k] = values
        levels.append((parents, values))
        n_rows = len(parents)
    graphs = np.empty((n_rows, D.n), dtype=np.intp)
    rows = np.arange(n_rows)
    for x, (parents, values) in zip(topo[::-1], levels[::-1]):
        graphs[:, x] = values[rows]
        rows = parents[rows]
    if not in_order:
        graphs = graphs[np.lexsort(graphs.T[::-1])]
    graphs.setflags(write=False)
    return graphs


# Cells (partial rows times candidate values) that one block of a level decides.
_LEVEL_CELLS = 1 << 20


def _grown_level(n_rows, below, leq, nodes, node_budget):
    """The kept (parent, value) pairs of one level, parent-major, and the
    node count after it.

    ``below`` holds, per lower cover, the value of every parent row there.
    The values are decided a block at a time, each block one gather of at
    most ``_LEVEL_CELLS`` cells, or of a single value when the parent rows
    alone exceed that.  The budget trips at the count a value-at-a-time
    search reaches: a block that would pass it is counted value by value,
    as a cumulative sum, before any of its pairs are kept.
    A block's flat indices list its pairs parent-major; pairs from several
    blocks are merged by a stable sort on the parent.
    """
    width = max(1, _LEVEL_CELLS // max(n_rows, 1))
    parents, values = [], []
    for lo in range(0, leq.shape[0], width):
        block = np.ascontiguousarray(leq[:, lo : lo + width])
        ok = block.take(below[0], axis=0) if below else np.ones((n_rows, block.shape[1]), bool)
        for col in below[1:]:
            ok &= block.take(col, axis=0)
        kept = np.count_nonzero(ok)
        if nodes + kept > node_budget:
            counts = nodes + np.cumsum(np.count_nonzero(ok, axis=0))
            reached = counts[np.argmax(counts > node_budget)]
            budget = "NODE_BUDGET" if node_budget == NODE_BUDGET else "node_budget"
            raise TooLarge(f"monotone-map search reached {reached} nodes, past {budget} ({node_budget})")
        nodes += kept
        parent, value = np.divmod(np.flatnonzero(ok), block.shape[1])
        parents.append(parent)
        values.append(value + lo)
    if len(parents) == 1:
        return parents[0], values[0], nodes
    parents = np.concatenate(parents) if parents else np.empty(0, dtype=np.intp)
    values = np.concatenate(values) if values else np.empty(0, dtype=np.intp)
    order = np.argsort(parents, kind="stable")
    return parents[order], values[order], nodes


def enumerate_monotone_maps(D: FinPoset, E: FinPoset, node_budget: int = NODE_BUDGET):
    """Exactly the monotone maps D -> E, sorted by graph tuple."""
    return MonoMap.from_rows(D, E, monotone_graphs(D, E, node_budget))


@dataclass(frozen=True)
class ExponentialPoset:
    """All monotone maps D -> E under the pointwise order.

    Row i of ``graphs`` is the graph of the map named ``poset.elements[i]``.
    """

    source: FinPoset
    target: FinPoset
    graphs: np.ndarray = field(repr=False, compare=False)
    poset: FinPoset

    @cached_property
    def maps(self) -> tuple:
        return tuple(MonoMap.from_rows(self.source, self.target, self.graphs))

    def index_of(self, graph) -> int:
        """Index in ``poset`` of the map with this graph."""
        return self._graph_index[tuple(graph)]

    def name_of(self, m: MonoMap) -> str:
        return self.poset.elements[self.index_of(m.graph)]

    @cached_property
    def _graph_index(self):
        return {tuple(g): i for i, g in enumerate(self.graphs.tolist())}

    def step_basis(self, beta_d: BasisMap, beta_e: BasisMap) -> BasisMap:
        """The directified single-step basis of this exponential."""
        D, E = self.source, self.target
        _require_lattice(E)
        labels = [(b, c) for b in beta_d.labels for c in beta_e.labels]
        steps = np.where(D.leq[beta_d.indices][:, None, :], beta_e.indices[None, :, None], E.bottom)
        closure = _join_closure(E, self.graphs, labels, steps.reshape(len(labels), D.n))
        # Row i of the sorted graphs is the map named elements[i]: canonical order.
        into = {label: self.poset.elements[i] for i, label in closure}
        return BasisMap(self.poset, tuple(into), into)


def exponential(D: FinPoset, E: FinPoset, node_budget: int = NODE_BUDGET) -> ExponentialPoset:
    """The monotone maps D -> E under the pointwise order.

    The carrier and its order are built once per pair of posets: they are
    kept on ``D`` (in its ``__dict__``, as ``waybelow`` keeps its relations),
    keyed by the value of ``E`` (its elements and order bytes) and the
    budget, and they live as long as ``D`` does.  The memo holds the graphs
    and the poset, neither of which refers back to ``D`` or ``E``, so it
    makes no reference cycle.  A refused carrier is not kept.
    """
    memo = D.__dict__.setdefault("_exponentials", {})
    key = (E.elements, E.leq.tobytes(), node_budget)
    if key not in memo:
        graphs = monotone_graphs(D, E, node_budget)
        if len(graphs) > CARRIER_BUDGET:
            raise TooLarge(
                f"exponential carrier of {len(graphs)} maps exceeds CARRIER_BUDGET ({CARRIER_BUDGET})"
            )
        width = len(str(max(len(graphs) - 1, 0)))
        names = tuple(f"f{i:0{width}d}" for i in range(len(graphs)))
        memo[key] = graphs, FinPoset(names, componentwise_leq([E] * D.n, graphs))
    return ExponentialPoset(D, E, *memo[key])


def step_function(D: FinPoset, E: FinPoset, d, e) -> MonoMap:
    """Map everything above d to e and everything else to the bottom of E."""
    if E.bottom is None:
        raise NotALattice("target has no least element")
    di, ei = D.index(d), E.index(e)
    graph = tuple(ei if D.leq[di, x] else E.bottom for x in range(D.n))
    return MonoMap(D, E, graph, check=False)


def step_function_above_check(D, E, d, e, expo: ExponentialPoset) -> bool:
    """A map lies above the step at (d, e) exactly when its value at d does."""
    si = expo.index_of(step_function(D, E, d, e).graph)
    above = E.leq[E.index(e), expo.graphs[:, D.index(d)]]
    return bool((expo.poset.leq[si] == above).all())


def step_function_compact_check(D: FinPoset, E: FinPoset, d, e) -> bool:
    """Steps at compact coordinates are compact in the exponential."""
    if not (is_compact(D, d) and is_compact(E, e)):
        raise PreconditionViolated("step coordinates must be compact")
    expo = exponential(D, E)
    return is_compact(expo.poset, expo.name_of(step_function(D, E, d, e)))


def _require_lattice(P: FinPoset):
    if not P.is_lattice():
        raise NotALattice("poset lacks a least element or binary joins")


def _join_closure(target: FinPoset, candidates, labels, gens):
    """The join closure of generator rows, read off sorted candidate rows.

    ``candidates`` and ``gens`` are rows of target indices of one width, the
    candidates holding every join of generators.  Over a lattice a candidate
    f lies in the closure (bottom, the empty join, included) exactly when it
    is the join of the generators below it: when f(x) <= e holds exactly
    where every generator g below f has g(x) <= e.  Which generators lie
    below f, and the pairs (x, e) where one of them escapes e, are two
    boolean products; there is no fixpoint.  Returns the index of each such
    candidate paired with the saturated set of labels whose rows lie below it.
    """
    width = candidates.shape[1] * target.n
    # [row, x * n + e]: the row's value at x is not below e
    gens_out = ~target.leq[gens].reshape(len(gens), width)
    cand_out = ~target.leq[candidates].reshape(len(candidates), width)
    below = ~bool_product(~cand_out, gens_out.T)
    kept = np.flatnonzero((bool_product(below, gens_out) == cand_out).all(axis=1))
    return [(i, frozenset(itertools.compress(labels, below[i]))) for i in kept.tolist()]


def step_basis(D: FinPoset, beta_d: BasisMap, E: FinPoset, beta_e: BasisMap) -> BasisMap:
    """The directified single-step basis of the exponential."""
    _require_lattice(E)  # refused before the exponential is built
    return exponential(D, E).step_basis(beta_d, beta_e)


@dataclass(frozen=True)
class JoinClosedBasis:
    """A basis with a designated bottom label and a label-level join."""

    basis: BasisMap
    bot_label: object

    def join(self, l1, l2):
        beta = self.basis
        P = beta.poset
        v = P.lub_table[P.index(beta.value(l1)), P.index(beta.value(l2))]
        hits = np.flatnonzero(beta.indices == v)
        if not len(hits):
            raise NotALattice("join escaped the closed basis")
        return beta.labels[hits[0]]


def close_basis_under_joins(P: FinPoset, beta: BasisMap) -> JoinClosedBasis:
    """Directify a basis on a lattice; the result is join-closed by design."""
    _require_lattice(P)
    closure = _join_closure(P, np.arange(P.n)[:, None], beta.labels, beta.indices[:, None])
    into = {label: P.elements[v] for v, label in closure}
    bot_label = next(label for v, label in closure if v == P.bottom)
    return JoinClosedBasis(BasisMap(P, tuple(into), into), bot_label)


def idl_supcomplete_check(P: FinPoset, closed: JoinClosedBasis) -> bool:
    """The order completion of a join-closed basis has all finite joins.

    Checks that the completion is a lattice, that the bottom ideal is the set
    of labels under the bottom label, and that the binary join of ideals I, J
    is exactly {b | some c in I, d in J have value(b) <= value(c v d)}.
    """
    beta = closed.basis
    completion = idl_poset(basis_from_order(P, beta))
    pos = completion.poset
    if not pos.is_lattice():
        return False
    idx = beta.indices
    # member[i, b]: ideal i holds label b, in the completion's element order
    member = np.array([[b in I for b in beta.labels] for I in completion.ideals], dtype=np.intp)
    if (P.leq[idx, P.index(beta.value(closed.bot_label))] != member[pos.bottom]).any():
        return False
    # under[b, c, d]: value(b) <= value(c) v value(d)
    under = P.leq[idx[:, None, None], P.lub_table[np.ix_(idx, idx)]].astype(np.intp)
    joins = np.einsum("ic,bcd,jd->ijb", member, under, member) > 0
    return bool((joins == member[pos.lub_table]).all())


def exp_basis_via_retract(D: FinPoset, beta_d: BasisMap, E: FinPoset, beta_e: BasisMap) -> BasisMap:
    """A small basis for E^D built through the order completions of the bases.

    Both posets are replaced by the completions of their (join-closed, for the
    target) bases, the step basis is formed up there, and the whole thing is
    carried back along the induced retraction of exponentials.
    """
    _require_lattice(E)
    if not (check_small_basis(D, beta_d) and check_small_basis(E, beta_e)):
        raise PreconditionViolated("inputs must be small bases")
    beta_e_closed = close_basis_under_joins(E, beta_e).basis
    pair_d, comp_d = idl_ep_pair(D, beta_d, use_way_below=False)
    pair_e, comp_e = idl_ep_pair(E, beta_e_closed, use_way_below=False)
    dbar, ebar = comp_d.poset, comp_e.poset
    upstairs = exponential(dbar, ebar)
    step = upstairs.step_basis(comp_d.principal_basis(), comp_e.principal_basis())
    downstairs = exponential(D, E)
    into, back = np.asarray(pair_d.embed.graph), np.asarray(pair_e.project.graph)
    ups = upstairs.graphs[step.indices]
    downs = [downstairs.index_of(g) for g in back[ups[:, into]].tolist()]
    values = {l: downstairs.poset.elements[i] for l, i in zip(step.labels, downs)}
    return BasisMap(downstairs.poset, step.labels, values)
