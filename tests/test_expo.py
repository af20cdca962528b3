from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frontier_join_closure, nested_supcomplete_check, pointwise_join, small_posets

from dcpolab import expo
from dcpolab.canonex import sierpinski
from dcpolab.cli import generate_lattice_corpus
from dcpolab.errors import NotALattice, OrderTheoryError, TooLarge
from dcpolab.expo import (
    JoinClosedBasis,
    close_basis_under_joins,
    enumerate_monotone_maps,
    exp_basis_via_retract,
    exponential,
    idl_supcomplete_check,
    monotone_graphs,
    step_basis,
    step_function,
    step_function_above_check,
    step_function_compact_check,
)
from dcpolab.finposet import closure_from_covers
from dcpolab.waybelow import (
    BasisMap,
    check_small_basis,
    check_small_compact_basis,
    exponential_locally_small_certificate,
)


def chain(n):
    names = tuple(f"c{i}" for i in range(n))
    return closure_from_covers(names, list(zip(names, names[1:])))


def test_monotone_count_two_chain():
    assert len(enumerate_monotone_maps(chain(2), chain(2))) == 3


def test_monotone_count_three_chain():
    assert len(enumerate_monotone_maps(chain(3), chain(3))) == 10


def test_monotone_count_point_source():
    point = closure_from_covers(("p",), [])
    for n in range(1, 5):
        assert len(enumerate_monotone_maps(point, chain(n))) == n


def test_monotone_count_binomial_oracle():
    # monotone maps between chains counted independently via a binomial
    for m in range(1, 5):
        for n in range(1, 5):
            got = len(enumerate_monotone_maps(chain(m), chain(n)))
            assert got == math.comb(m + n - 1, m)


def test_monotone_enumeration_is_sorted_and_exact(small_corpus):
    import itertools

    for dom in small_corpus[:6]:
        for cod in small_corpus[6:10]:
            if cod.n**dom.n > 5000:
                continue
            got = [m.graph for m in enumerate_monotone_maps(dom, cod)]
            brute = [
                g
                for g in itertools.product(range(cod.n), repeat=dom.n)
                if all(
                    not dom.leq[i, j] or cod.leq[g[i], g[j]]
                    for i in range(dom.n)
                    for j in range(dom.n)
                )
            ]
            assert got == sorted(brute)


def test_node_budget_guard():
    with pytest.raises(TooLarge):
        enumerate_monotone_maps(chain(4), chain(4), node_budget=3)


EMPTY = closure_from_covers((), [])


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(small_posets(), small_posets()).filter(lambda pair: pair[1].n ** pair[0].n <= 4096)
)
@example((EMPTY, chain(2)))
@example((chain(2), EMPTY))
@example((closure_from_covers(("hi", "lo"), [("lo", "hi")]), chain(3)))
def test_monotone_graphs_is_the_sorted_product_filter(pair):
    dom, cod = pair
    graphs = monotone_graphs(dom, cod)
    assert graphs.dtype == np.intp and not graphs.flags.writeable
    assert graphs.shape[1] == dom.n
    brute = [
        g
        for g in itertools.product(range(cod.n), repeat=dom.n)
        if all(cod.leq[g[i], g[j]] for i in range(dom.n) for j in range(dom.n) if dom.leq[i, j])
    ]
    rows = [tuple(g) for g in graphs.tolist()]
    assert rows == brute
    assert all(a < b for a, b in zip(rows, rows[1:]))
    if dom.n == 0:
        assert graphs.shape == (1, 0)
    elif cod.n == 0:
        assert graphs.shape == (0, dom.n)


def test_node_budget_counts_kept_partial_rows():
    # the search keeps 69 partial rows on the way to the 35 maps chain(4) -> chain(4)
    assert len(monotone_graphs(chain(4), chain(4), node_budget=69)) == 35
    with pytest.raises(TooLarge):
        monotone_graphs(chain(4), chain(4), node_budget=68)


def test_node_budget_bounds_memory_before_it_raises():
    dom = closure_from_covers(("a", "b", "c"), [])
    cod = closure_from_covers(tuple(f"t{i}" for i in range(400)), [])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            monotone_graphs(dom, cod, node_budget=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_separately_built_exponentials_are_equal_and_hash_alike():
    first, second = exponential(chain(2), chain(3)), exponential(chain(2), chain(3))
    assert first is not second and first.graphs is not second.graphs
    assert first == second
    assert hash(first) == hash(second)


def test_step_function_bottom_threshold_is_constant(two_chain, diamond):
    step = step_function(diamond, two_chain, "bot", "top")
    assert all(step.apply(x) == "top" for x in diamond.elements)


def test_step_function_bottom_value_is_constant_bottom(two_chain, diamond):
    step = step_function(diamond, two_chain, "a", "bot")
    assert all(step.apply(x) == "bot" for x in diamond.elements)


def test_step_function_above_characterisation():
    for dom in (chain(2), chain(3)):
        for cod in (chain(2), chain(3)):
            ex = exponential(dom, cod)
            for d in dom.elements:
                for e in cod.elements:
                    assert step_function_above_check(dom, cod, d, e, ex)


def test_step_function_compactness(two_chain):
    assert step_function_compact_check(two_chain, two_chain, "bot", "bot")
    assert step_function_compact_check(two_chain, two_chain, "top", "top")


def test_step_basis_covers_sierpinski_self_maps():
    poset, beta = sierpinski()
    ex = exponential(poset, poset)
    basis = step_basis(poset, beta, poset, beta)
    assert len(ex.maps) == 3
    assert set(basis.image_names()) == set(ex.poset.elements)
    assert check_small_compact_basis(ex.poset, basis)


def test_step_basis_bottom_label_is_empty_set():
    poset, beta = sierpinski()
    ex = exponential(poset, poset)
    basis = step_basis(poset, beta, poset, beta)
    bottom_name = ex.poset.elements[ex.poset.bottom]
    bottom_labels = [l for l in basis.labels if basis.value(l) == bottom_name]
    assert len(bottom_labels) == 1
    # the label for the bottom map holds exactly the step pairs landing at bottom
    for b, c in bottom_labels[0]:
        assert step_function(poset, poset, beta.value(b), beta.value(c)).graph == tuple(
            [poset.bottom] * poset.n
        )


def test_every_map_is_join_of_steps_below(small_corpus):
    lattices = generate_lattice_corpus(41, 6, 4)
    pairs = list(zip(lattices[::2], lattices[1::2]))
    for dom, cod in pairs:
        ex = exponential(dom, cod)
        beta_d, beta_e = BasisMap.identity(dom), BasisMap.identity(cod)
        steps = [
            step_function(dom, cod, d, e).graph for d in dom.elements for e in cod.elements
        ]
        for f in ex.maps:
            join = tuple([cod.bottom] * dom.n)
            for g in steps:
                if all(cod.leq[g[i], f.graph[i]] for i in range(dom.n)):
                    join = pointwise_join(cod, join, g)
            assert join == f.graph


def test_step_basis_compact_on_lattice_corpus():
    lattices = generate_lattice_corpus(43, 8, 4)
    for dom, cod in zip(lattices[::2], lattices[1::2]):
        ex = exponential(dom, cod)
        basis = step_basis(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
        assert check_small_compact_basis(ex.poset, basis)


def test_step_basis_requires_lattice(two_chain):
    no_joins = closure_from_covers(("a", "b"), [])
    with pytest.raises(NotALattice):
        step_basis(two_chain, BasisMap.identity(two_chain), no_joins, BasisMap.identity(no_joins))


def test_exponential_locally_small_on_constructed(small_corpus):
    lattices = generate_lattice_corpus(47, 4, 3)
    for dom, cod in zip(lattices[::2], lattices[1::2]):
        ex = exponential(dom, cod)
        beta = BasisMap.identity(dom)
        for f in ex.maps:
            for g in ex.maps:
                assert exponential_locally_small_certificate(dom, beta, cod, f, g)


def test_close_basis_under_joins_sierpinski():
    poset, beta = sierpinski()
    closed = close_basis_under_joins(poset, beta)
    assert set(closed.basis.image_names()) == {"bot", "top"}
    assert closed.basis.value(closed.bot_label) == "bot"
    j = closed.join(closed.bot_label, closed.basis.labels[-1])
    assert closed.basis.value(j) == "top"


def test_close_basis_join_law_on_lattices():
    for P in generate_lattice_corpus(53, 6, 4):
        closed = close_basis_under_joins(P, BasisMap.identity(P))
        beta = closed.basis
        assert check_small_basis(P, beta)
        for l1 in beta.labels:
            for l2 in beta.labels:
                joined = beta.value(closed.join(l1, l2))
                expect = P.elements[
                    int(P.lub_table[P.index(beta.value(l1)), P.index(beta.value(l2))])
                ]
                assert joined == expect


def test_close_basis_bottom_label_when_bottom_is_not_first():
    P = closure_from_covers(("top", "bot"), [("bot", "top")])
    closed = close_basis_under_joins(P, BasisMap.identity(P))
    assert closed.basis.value(closed.bot_label) == "bot"
    assert closed.basis.image_names() == ("top", "bot")


def test_idl_supcomplete_two_chain():
    poset, beta = sierpinski()
    assert idl_supcomplete_check(poset, close_basis_under_joins(poset, beta))


def test_idl_supcomplete_on_lattices():
    for P in generate_lattice_corpus(59, 5, 4):
        closed = close_basis_under_joins(P, BasisMap.identity(P))
        assert idl_supcomplete_check(P, closed)


def test_exp_basis_via_retract_sierpinski():
    poset, beta = sierpinski()
    ex = exponential(poset, poset)
    basis = exp_basis_via_retract(poset, beta, poset, beta)
    assert check_small_basis(ex.poset, basis)


def test_exp_basis_via_retract_matches_step_fibers():
    # with compact-basis inputs the two constructions give the same fibers
    lattices = generate_lattice_corpus(61, 6, 3)
    for dom, cod in zip(lattices[::2], lattices[1::2]):
        ex = exponential(dom, cod)
        via = exp_basis_via_retract(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
        step = step_basis(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
        assert check_small_basis(ex.poset, via)
        for f in ex.poset.elements:
            via_vals = sorted(via.value(b) for b in via.way_fiber(f))
            step_vals = sorted(step.value(b) for b in step.way_fiber(f))
            assert set(via_vals) == set(step_vals)


def test_exp_basis_via_retract_enumerates_each_exponential_once(monkeypatch):
    # one enumeration upstairs (shared with the step basis), one downstairs
    calls = []

    def counted(D, E, *args):
        calls.append((D.n, E.n))
        return monotone_graphs(D, E, *args)

    monkeypatch.setattr(expo, "monotone_graphs", counted)
    dom, cod = generate_lattice_corpus(61, 2, 3)
    exp_basis_via_retract(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
    assert len(calls) == 2


def test_step_basis_reads_the_exponential_already_built(searches):
    dom, cod = generate_lattice_corpus(71, 2, 4)
    ex = exponential(dom, cod)
    basis = step_basis(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
    assert searches == [(dom.n, cod.n)]
    assert basis.poset is ex.poset
    again = exponential(dom, cod)
    assert again.graphs is ex.graphs and again == ex and searches == [(dom.n, cod.n)]


def test_exponential_memo_keys_on_the_budget_and_the_source_object(searches):
    dom, cod = chain(3), chain(4)
    ex = exponential(dom, cod)
    # an equal target built afresh is the same key
    assert exponential(dom, chain(4)).graphs is ex.graphs and len(searches) == 1
    # another budget, or an equal source built afresh, searches again
    assert np.array_equal(exponential(dom, cod, node_budget=10_000).graphs, ex.graphs)
    assert np.array_equal(exponential(chain(3), cod).graphs, ex.graphs)
    assert len(searches) == 3
    # a refused search is not kept: it raises each time
    for _ in range(2):
        with pytest.raises(TooLarge, match="past node_budget"):
            exponential(dom, cod, node_budget=3)
    assert len(searches) == 5
    # a different target is a different key
    assert len(exponential(dom, chain(2)).graphs) == 4 and len(searches) == 6


def test_exponential_memo_makes_no_reference_cycle():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        dom, cod = chain(3), chain(4)
        ex = exponential(dom, cod)
        step_basis(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
        # FinPoset takes no weak references: its order matrix stands for it
        arrays = [weakref.ref(a) for a in (ex.graphs, ex.poset.leq, dom.leq)]
        del ex, dom, cod
        # reference counting alone frees the memo: nothing waits for the collector
        assert all(ref() is None for ref in arrays)
    finally:
        if was_enabled:
            gc.enable()


def _search_outcome(D, E, budget):
    try:
        return monotone_graphs(D, E, node_budget=budget).tolist()
    except TooLarge as err:
        return str(err)


def test_blocked_levels_match_the_one_block_search(monkeypatch):
    # Five cells a block splits every level of these searches into several
    # blocks (and, past five parent rows, into one value a block).
    antichain = closure_from_covers(("a", "b", "c"), [])
    # element order not a linear extension: the search runs in another order
    unsorted = closure_from_covers(("p0", "p1", "p2"), [("p2", "p1"), ("p1", "p0")])
    pairs = [(chain(4), chain(4)), (chain(3), antichain), (unsorted, chain(3)), (chain(2), EMPTY)]
    lattices = generate_lattice_corpus(73, 4, 4)
    pairs += list(zip(lattices[::2], lattices[1::2]))
    budgets = range(0, 120)
    one_block = [[_search_outcome(D, E, b) for b in budgets] for D, E in pairs]
    monkeypatch.setattr(expo, "_LEVEL_CELLS", 5)
    blocked = [[_search_outcome(D, E, b) for b in budgets] for D, E in pairs]
    assert blocked == one_block
    # both graphs and refusals occur, so both the merge and the trip count are compared
    outcomes = [o for per_pair in one_block for o in per_pair]
    assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, list) for o in outcomes)


def test_exp_basis_via_retract_requires_lattice(two_chain):
    no_joins = closure_from_covers(("a", "b"), [])
    with pytest.raises(NotALattice):
        exp_basis_via_retract(
            two_chain,
            BasisMap.identity(two_chain),
            no_joins,
            BasisMap.identity(no_joins),
        )


LATTICES = generate_lattice_corpus(67, 40, 5)


@st.composite
def lattice_sub_bases(draw):
    """A corpus lattice with a random basis on it: labels in random number,
    duplicate values allowed, every element covered or not."""
    P = draw(st.sampled_from(LATTICES))
    values = draw(st.lists(st.sampled_from(P.elements), max_size=P.n + 2))
    if draw(st.booleans()):
        values = draw(st.permutations(list(P.elements) + values))
    labels = tuple(f"l{i}" for i in range(len(values)))
    return P, BasisMap(P, labels, dict(zip(labels, values)))


def callback_step_basis(D, beta_d, E, beta_e):
    """``step_basis`` through the callback closure: labels and values."""
    ex = exponential(D, E)
    generators = [
        ((b, c), step_function(D, E, beta_d.value(b), beta_e.value(c)).graph)
        for b in beta_d.labels
        for c in beta_e.labels
    ]
    closure = frontier_join_closure(
        (E.bottom,) * D.n,
        generators,
        lambda g, h: pointwise_join(E, g, h),
        lambda g, h: ex.poset.leq[ex.index_of(g), ex.index_of(h)],
    )
    into = {label: ex.poset.elements[ex.index_of(g)] for g, label in closure}
    return tuple(into), into


def callback_close_basis(P, beta):
    """``close_basis_under_joins`` through the callback closure."""
    closure = frontier_join_closure(
        P.bottom,
        [(b, P.index(beta.value(b))) for b in beta.labels],
        lambda v, w: int(P.lub_table[v, w]),
        lambda u, v: P.leq[u, v],
    )
    into = {label: P.elements[v] for v, label in closure}
    return tuple(into), into, next(label for v, label in closure if v == P.bottom)


# Degenerate shapes: no labels, every label on one value, and an empty source,
# whose one empty map is the only candidate and the generators have no columns.
CHAIN3 = chain(3)
NO_BASIS = (CHAIN3, BasisMap(CHAIN3, (), {}))
ONE_VALUE = (CHAIN3, BasisMap(CHAIN3, ("a", "b", "c"), dict.fromkeys("abc", "c1")))
FULL_CHAIN3 = (CHAIN3, BasisMap.identity(CHAIN3))


@settings(max_examples=60, deadline=None)
@given(lattice_sub_bases(), lattice_sub_bases())
@example(FULL_CHAIN3, NO_BASIS)
@example(NO_BASIS, FULL_CHAIN3)
@example(ONE_VALUE, ONE_VALUE)
@example((EMPTY, BasisMap.identity(EMPTY)), FULL_CHAIN3)
@example((EMPTY, BasisMap.identity(EMPTY)), NO_BASIS)
def test_step_basis_matches_callback_closure(source, target):
    (D, beta_d), (E, beta_e) = source, target
    basis = step_basis(D, beta_d, E, beta_e)
    assert (basis.labels, basis.into) == callback_step_basis(D, beta_d, E, beta_e)


@settings(max_examples=150, deadline=None)
@given(lattice_sub_bases())
@example(NO_BASIS)
@example(ONE_VALUE)
@example((chain(1), BasisMap(chain(1), ("a", "b"), dict.fromkeys("ab", "c0"))))
def test_close_basis_under_joins_matches_callback_closure(pair):
    P, beta = pair
    closed = close_basis_under_joins(P, beta)
    labels, into, bot_label = callback_close_basis(P, beta)
    assert (closed.basis.labels, closed.basis.into, closed.bot_label) == (labels, into, bot_label)


def _outcome(check, *args):
    try:
        return check(*args)
    except OrderTheoryError as exc:  # the two routes must fail alike, too
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(lattice_sub_bases(), st.data())
def test_idl_supcomplete_verdict_matches_nested_loops(pair, data):
    # a bottom label drawn at random makes some verdicts false
    P, beta = pair
    closed = close_basis_under_joins(P, beta)
    if data.draw(st.booleans()):
        closed = JoinClosedBasis(closed.basis, data.draw(st.sampled_from(closed.basis.labels)))
    expect = _outcome(nested_supcomplete_check, P, closed)
    assert _outcome(idl_supcomplete_check, P, closed) == expect


TWO = closure_from_covers(("bot", "top"), [("bot", "top")])
POINT = closure_from_covers(("p",), [])
NO_LABELS = BasisMap(TWO, (), {})


@pytest.mark.parametrize(
    "D, beta_d, E, beta_e, label",
    [
        (EMPTY, BasisMap.identity(EMPTY), TWO, BasisMap.identity(TWO), frozenset()),
        (TWO, BasisMap.identity(TWO), TWO, NO_LABELS, frozenset()),
        (TWO, NO_LABELS, TWO, BasisMap.identity(TWO), frozenset()),
        (
            TWO,
            BasisMap.identity(TWO),
            POINT,
            BasisMap.identity(POINT),
            frozenset({("bot", "p"), ("top", "p")}),
        ),
    ],
    ids=["empty-source", "no-target-labels", "no-source-labels", "one-element-target"],
)
def test_step_basis_degenerate_cases_have_one_map(D, beta_d, E, beta_e, label):
    basis = step_basis(D, beta_d, E, beta_e)
    assert basis.labels == (label,)
    assert basis.into == {label: "f0"}


def test_close_basis_under_joins_without_labels_is_the_bottom():
    closed = close_basis_under_joins(TWO, NO_LABELS)
    assert closed.basis.labels == (frozenset(),)
    assert closed.basis.into == {frozenset(): "bot"}
    assert closed.bot_label == frozenset()


def test_close_basis_under_joins_on_one_element_lattice():
    closed = close_basis_under_joins(POINT, BasisMap.identity(POINT))
    assert closed.basis.into == {frozenset({"p"}): "p"}
    assert closed.bot_label == frozenset({"p"})


def test_join_closed_basis_join_refuses_an_escaping_join(diamond):
    into = {"x": "a", "y": "b", "t": "top", "t2": "top"}
    closed = JoinClosedBasis(BasisMap(diamond, ("x", "y", "t", "t2"), into), "x")
    assert closed.join("x", "t2") == "t"  # the first label holding the join
    open_basis = JoinClosedBasis(BasisMap(diamond, ("x", "y"), {"x": "a", "y": "b"}), "x")
    with pytest.raises(NotALattice, match="join escaped the closed basis"):
        open_basis.join("x", "y")
