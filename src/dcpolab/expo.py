"""Exponentials of finite posets, step functions, and their bases.

The carrier of an exponential is every monotone map, enumerated by a
backtracking search over a linear extension of the source with upper-set
pruning; elements are named ``f0, f1, ...`` in the canonical order of their
graphs.

Step functions use the decidable case split (value above the threshold,
bottom elsewhere); on a decidable order this agrees with the
subsingleton-supremum formulation (README, "finite semantics").

Directified bases index by subsets of the single-step index, further
normalised to one saturated subset per achievable join: finite lists of
generators collapse to their member sets because joins are associative,
commutative and idempotent, and subsets with the same join collapse to the
largest of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotALattice, PreconditionViolated, TooLarge
from .finposet import FinPoset, MonoMap, componentwise_leq, mono_compose
from .idealcomp import basis_from_order, idl_ep_pair, idl_poset
from .waybelow import BasisMap, check_small_basis, is_compact

NODE_BUDGET = 10_000_000

# A pointwise-order matrix on more maps than this is past desk scale.
CARRIER_BUDGET = 5000


def enumerate_monotone_maps(D: FinPoset, E: FinPoset, node_budget: int = NODE_BUDGET):
    """Exactly the monotone maps D -> E, sorted by graph tuple."""
    if D.n == 0:
        return [MonoMap(D, E, (), check=False)]
    if E.n == 0:
        return []
    topo = sorted(range(D.n), key=lambda i: (bin(D.below_int[i]).count("1"), i))
    position = {v: k for k, v in enumerate(topo)}
    preds = [
        [position[j] for j in range(D.n) if D.leq[j, topo[k]] and j != topo[k]]
        for k in range(D.n)
    ]
    out = []
    graph = [0] * D.n
    nodes = 0

    def backtrack(k: int):
        nonlocal nodes
        if k == D.n:
            out.append(tuple(graph))
            return
        lower = E.full_mask()
        for p in preds[k]:
            lower &= E.above_int[graph[topo[p]]]
        for e in range(E.n):
            if lower & (1 << e):
                nodes += 1
                if nodes > node_budget:
                    raise TooLarge("monotone-map search exceeded its node budget")
                graph[topo[k]] = e
                backtrack(k + 1)

    backtrack(0)
    return [MonoMap(D, E, g, check=False) for g in sorted(out)]


@dataclass(frozen=True)
class ExponentialPoset:
    """All monotone maps D -> E under the pointwise order."""

    source: FinPoset
    target: FinPoset
    maps: tuple
    poset: FinPoset

    def index_of(self, graph) -> int:
        """Index in ``poset`` of the map with this graph."""
        return self._graph_index[tuple(graph)]

    def name_of(self, m: MonoMap) -> str:
        return self.poset.elements[self.index_of(m.graph)]

    def map_of(self, name) -> MonoMap:
        return self.maps[self.poset.index(name)]

    @cached_property
    def _graph_index(self):
        return {m.graph: i for i, m in enumerate(self.maps)}

    def join_graph(self, g1, g2):
        lub = self.target.lub_table
        return tuple(int(lub[a, b]) for a, b in zip(g1, g2))


def exponential(D: FinPoset, E: FinPoset, node_budget: int = NODE_BUDGET) -> ExponentialPoset:
    maps = enumerate_monotone_maps(D, E, node_budget)
    if len(maps) > CARRIER_BUDGET:
        raise TooLarge(f"exponential carrier of {len(maps)} maps exceeds the budget")
    width = len(str(max(len(maps) - 1, 0)))
    names = tuple(f"f{i:0{width}d}" for i in range(len(maps)))
    leq = componentwise_leq([E] * D.n, [m.graph for m in maps])
    return ExponentialPoset(D, E, tuple(maps), FinPoset(names, leq))


def step_function(D: FinPoset, E: FinPoset, d, e) -> MonoMap:
    """Map everything above d to e and everything else to the bottom of E."""
    if E.bottom is None:
        raise NotALattice("target has no least element")
    di, ei = D.index(d), E.index(e)
    graph = tuple(ei if D.leq[di, x] else E.bottom for x in range(D.n))
    return MonoMap(D, E, graph, check=False)


def step_function_above_check(D, E, d, e, expo: ExponentialPoset) -> bool:
    """A map lies above the step at (d, e) exactly when its value at d does."""
    step = step_function(D, E, d, e)
    si = expo.index_of(step.graph)
    ei = E.index(e)
    for i, f in enumerate(expo.maps):
        if bool(expo.poset.leq[si, i]) != bool(E.leq[ei, f.graph[D.index(d)]]):
            return False
    return True


def step_function_compact_check(D: FinPoset, E: FinPoset, d, e) -> bool:
    """Steps at compact coordinates are compact in the exponential."""
    if not (is_compact(D, d) and is_compact(E, e)):
        raise PreconditionViolated("step coordinates must be compact")
    expo = exponential(D, E)
    return is_compact(expo.poset, expo.name_of(step_function(D, E, d, e)))


def _require_lattice(P: FinPoset):
    if not P.is_lattice():
        raise NotALattice("poset lacks a least element or binary joins")


def _join_closure(bottom, generators, join, le):
    """Close (label, value) generators under finite joins, starting at bottom.

    Returns each achieved join, in sorted order, paired with the saturated set
    of generator labels whose values lie below it.
    """
    achieved = {bottom}
    frontier = [bottom]
    values = [v for _, v in generators]
    while frontier:
        v = frontier.pop()
        for w in values:
            j = join(v, w)
            if j not in achieved:
                achieved.add(j)
                frontier.append(j)
    return [
        (v, frozenset(label for label, g in generators if le(g, v))) for v in sorted(achieved)
    ]


def step_basis(D: FinPoset, beta_d: BasisMap, E: FinPoset, beta_e: BasisMap) -> BasisMap:
    """The directified single-step basis of the exponential."""
    _require_lattice(E)
    expo = exponential(D, E)
    generators = [
        ((b, c), step_function(D, E, beta_d.value(b), beta_e.value(c)).graph)
        for b in beta_d.labels
        for c in beta_e.labels
    ]
    closure = _join_closure(
        (E.bottom,) * D.n,
        generators,
        expo.join_graph,
        lambda g, h: expo.poset.leq[expo.index_of(g), expo.index_of(h)],
    )
    # Maps are named in sorted graph order, so the closure is in canonical order.
    into = {label: expo.poset.elements[expo.index_of(g)] for g, label in closure}
    return BasisMap(expo.poset, tuple(into), into)


@dataclass(frozen=True)
class JoinClosedBasis:
    """A basis with a designated bottom label and a label-level join."""

    basis: BasisMap
    bot_label: object

    def join(self, l1, l2):
        P = self.basis.poset
        v = P.lub_table[P.index(self.basis.value(l1)), P.index(self.basis.value(l2))]
        target = P.elements[int(v)]
        for label in self.basis.labels:
            if self.basis.value(label) == target:
                return label
        raise NotALattice("join escaped the closed basis")


def close_basis_under_joins(P: FinPoset, beta: BasisMap) -> JoinClosedBasis:
    """Directify a basis on a lattice; the result is join-closed by design."""
    _require_lattice(P)
    closure = _join_closure(
        P.bottom,
        [(b, P.index(beta.value(b))) for b in beta.labels],
        lambda v, w: int(P.lub_table[v, w]),
        lambda u, v: P.leq[u, v],
    )
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
    ab = basis_from_order(P, beta)
    completion = idl_poset(ab)
    pos = completion.poset
    if not pos.is_lattice():
        return False
    bot_ideal = frozenset(
        b for b in beta.labels if P.le(beta.value(b), beta.value(closed.bot_label))
    )
    if completion.name_of(bot_ideal) != pos.elements[pos.bottom]:
        return False
    for i, I in enumerate(completion.ideals):
        for j, J in enumerate(completion.ideals):
            K = frozenset(
                b
                for b in beta.labels
                if any(
                    P.le(beta.value(b), beta.value(closed.join(c, d)))
                    for c in I
                    for d in J
                )
            )
            if completion.name_of(K) != pos.elements[int(pos.lub_table[i, j])]:
                return False
    return True


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
    step = step_basis(dbar, comp_d.principal_basis(), ebar, comp_e.principal_basis())
    upstairs = exponential(dbar, ebar)
    downstairs = exponential(D, E)

    def pull_down(name):
        g = upstairs.map_of(name)
        back = mono_compose(pair_e.project, mono_compose(g, pair_d.embed))
        return downstairs.name_of(back)

    return BasisMap(
        downstairs.poset, step.labels, {l: pull_down(step.value(l)) for l in step.labels}
    )
