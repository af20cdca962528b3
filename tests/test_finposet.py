from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import lub_oracle, naive_directed_subsets, small_posets

from dcpolab.cli import generate_corpus
from dcpolab.errors import (
    CycleDetected,
    DuplicateElement,
    NotDirected,
    NotMonotone,
    ShapeMismatch,
    UnknownElement,
)
from dcpolab.finposet import (
    EpPair,
    FinPoset,
    MonoMap,
    closure_from_covers,
    componentwise_leq,
    directed_sup,
    is_directed,
    is_order_isomorphism,
    is_scott_continuous,
    mono_compose,
    scott_continuity_of_graph,
    subposet,
    upper_bounds_mask,
    validate_ep_pair,
)


def test_closure_singleton():
    p = closure_from_covers(("a",), [])
    assert p.le("a", "a")
    assert p.n == 1


def test_closure_two_chain():
    p = closure_from_covers(("a", "b"), [("a", "b")])
    assert p.le("a", "b") and not p.le("b", "a")


def test_closure_cycle_rejected():
    with pytest.raises(CycleDetected):
        closure_from_covers(("a", "b"), [("a", "b"), ("b", "a")])


def test_closure_duplicate_rejected():
    with pytest.raises(DuplicateElement):
        closure_from_covers(("a", "a"), [])


def test_closure_unknown_cover_endpoint():
    with pytest.raises(UnknownElement):
        closure_from_covers(("a",), [("a", "zzz")])


def test_transitive_closure_through_chain():
    p = closure_from_covers(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert p.le("a", "c")
    assert p.covers() == [("a", "b"), ("b", "c")]


def test_is_directed_empty_false(diamond):
    assert not is_directed(diamond, [])


def test_is_directed_chain_subsets(diamond):
    assert is_directed(diamond, ["bot", "a", "top"])
    assert is_directed(diamond, ["bot"])


def test_is_directed_antichain_false(diamond):
    assert not is_directed(diamond, ["a", "b"])


def test_is_directed_unknown_element(diamond):
    with pytest.raises(UnknownElement):
        is_directed(diamond, ["nope"])


def test_directed_sup_singleton(diamond):
    assert directed_sup(diamond, ["a"]) == "a"


def test_directed_sup_chain_in_diamond(diamond):
    assert directed_sup(diamond, ["bot", "a", "top"]) == "top"


def test_directed_sup_not_directed(diamond):
    with pytest.raises(NotDirected):
        directed_sup(diamond, ["a", "b"])


def test_directed_sup_matches_lub_oracle_on_corpus():
    # every directed subset has a greatest element equal to the brute-force lub
    for poset in generate_corpus(5, 500, 7):
        for sub in naive_directed_subsets(poset):
            assert directed_sup(poset, sub) == lub_oracle(poset, sub)


def test_directed_table_agrees_with_naive(small_corpus):
    for poset in small_corpus:
        dmasks, sups = poset.directed_table
        got = {poset.names_of(int(m)) for m in dmasks}
        assert got == set(naive_directed_subsets(poset))
        for m, s in zip(dmasks.tolist(), sups.tolist()):
            assert lub_oracle(poset, poset.names_of(m)) == poset.elements[s]


@settings(deadline=None, max_examples=60)
@given(small_posets())
def test_directed_table_matches_naive_property(poset):
    # Ascending masks, exactly the naive directed subsets, each with the
    # oracle's least upper bound as its greatest member.
    dmasks, sups = poset.directed_table
    naive = sorted((poset.mask_of(sub), lub_oracle(poset, sub)) for sub in naive_directed_subsets(poset))
    assert dmasks.tolist() == [m for m, _ in naive]
    assert [poset.elements[s] for s in sups.tolist()] == [sup for _, sup in naive]


def test_upper_bounds_mask(diamond):
    mask = upper_bounds_mask(diamond, ["a", "b"])
    assert diamond.names_of(mask) == ("top",)


def test_monomap_requires_monotone(two_chain):
    with pytest.raises(NotMonotone):
        MonoMap.from_mapping(two_chain, two_chain, {"bot": "top", "top": "bot"})


def test_monomap_requires_total(two_chain):
    for graph in [(0,), (0, -1), (0, 2)]:
        with pytest.raises(ShapeMismatch):
            MonoMap(two_chain, two_chain, graph)


def test_scott_continuous_identity_and_constant(diamond):
    assert is_scott_continuous(MonoMap.identity(diamond))
    const = MonoMap.from_mapping(diamond, diamond, lambda _x: "a")
    assert is_scott_continuous(const)


def test_scott_continuity_equals_monotonicity_exhaustively(small_corpus):
    # on finite posets continuity and monotonicity coincide; check all self-maps
    def naive_monotone(poset, graph):
        return all(
            poset.leq[i, j] <= poset.leq[graph[i], graph[j]]
            for i in range(poset.n)
            for j in range(poset.n)
        )

    for poset in small_corpus[:12]:
        for graph in itertools.product(range(poset.n), repeat=poset.n):
            assert scott_continuity_of_graph(poset, poset, graph) == naive_monotone(
                poset, graph
            )


def test_validate_ep_pair_identity(diamond):
    ident = MonoMap.identity(diamond)
    assert validate_ep_pair(EpPair(embed=ident, project=ident))


def test_validate_ep_pair_point_into_chain(two_chain):
    point = closure_from_covers(("bot",), [])
    embed = MonoMap.from_mapping(point, two_chain, {"bot": "bot"})
    project = MonoMap.from_mapping(two_chain, point, {"bot": "bot", "top": "bot"})
    assert validate_ep_pair(EpPair(embed=embed, project=project))


def test_validate_ep_pair_non_injective_embed_fails(two_chain):
    point = closure_from_covers(("p",), [])
    collapse = MonoMap.from_mapping(two_chain, point, {"bot": "p", "top": "p"})
    include = MonoMap.from_mapping(point, two_chain, {"p": "bot"})
    assert not validate_ep_pair(EpPair(embed=collapse, project=include))


def test_validate_ep_pair_shape_mismatch(two_chain, diamond):
    with pytest.raises(ShapeMismatch):
        validate_ep_pair(
            EpPair(embed=MonoMap.identity(two_chain), project=MonoMap.identity(diamond))
        )


def test_equal_maps_over_equal_posets_hash_alike():
    def build():
        chain = closure_from_covers(("bot", "top"), [("bot", "top")])
        return MonoMap.from_mapping(chain, chain, {"bot": "bot", "top": "top"})

    m1, m2 = build(), build()
    assert m1.source is not m2.source and m1 == m2
    assert hash(m1) == hash(m2)
    assert len({m1, m2}) == 1


def test_mono_compose(two_chain, diamond):
    up = MonoMap.from_mapping(two_chain, diamond, {"bot": "bot", "top": "top"})
    down = MonoMap.from_mapping(diamond, two_chain, {"bot": "bot", "a": "bot", "b": "bot", "top": "top"})
    both = mono_compose(down, up)
    assert both.graph == MonoMap.identity(two_chain).graph


def test_subposet(diamond):
    sub = subposet(diamond, ["bot", "top"])
    assert sub.elements == ("bot", "top")
    assert sub.le("bot", "top")


def test_poset_immutable(diamond):
    with pytest.raises(ValueError):
        diamond.leq[0, 0] = False


def test_valid_ep_pair_embed_injective_and_order_reflecting():
    from dcpolab.cli import generate_ep_corpus

    for pair in generate_ep_corpus(77, 20, 5):
        assert validate_ep_pair(pair)
        e = pair.embed
        assert len(set(e.graph)) == len(e.graph)
        for x in e.source.elements:
            for y in e.source.elements:
                if e.target.le(e.apply(x), e.apply(y)):
                    assert e.source.le(x, y)


def test_corpus_posets_validate():
    for poset in generate_corpus(0, 50, 7):
        assert 2 <= poset.n <= 7
        assert FinPoset(poset.elements, poset.leq) == poset
    a = generate_corpus(42, 10, 6)
    b = generate_corpus(42, 10, 6)
    assert all(x == y for x, y in zip(a, b))


def test_order_isomorphism_rejects_non_surjective_embedding(two_chain, diamond):
    up = MonoMap.from_mapping(two_chain, diamond, {"bot": "bot", "top": "top"})
    assert not is_order_isomorphism(up)


def test_order_isomorphism_rejects_bijection_not_reflecting_order():
    antichain = closure_from_covers(("x", "y"), [])
    chain = closure_from_covers(("lo", "hi"), [("lo", "hi")])
    f = MonoMap.from_mapping(antichain, chain, {"x": "lo", "y": "hi"})
    assert len(set(f.graph)) == chain.n
    assert not is_order_isomorphism(f)


def test_order_isomorphism_between_separately_built_equal_posets(diamond):
    again = closure_from_covers(diamond.elements, diamond.covers())
    assert again is not diamond
    assert is_order_isomorphism(MonoMap.from_mapping(diamond, again, {x: x for x in diamond.elements}))


def test_componentwise_leq_matches_pointwise_oracle():
    rng = random.Random(3)
    coords = generate_corpus(5, 4, 5)
    for m in (0, 1, 7):
        rows = [tuple(rng.randrange(c.n) for c in coords) for _ in range(m)]
        oracle = [
            [all(c.le(c.elements[a[k]], c.elements[b[k]]) for k, c in enumerate(coords)) for b in rows]
            for a in rows
        ]
        assert (componentwise_leq(coords, rows) == np.array(oracle, dtype=bool).reshape(m, m)).all()


def test_componentwise_leq_without_coordinates():
    assert componentwise_leq([], [()]).tolist() == [[True]]
    assert componentwise_leq([], [(), ()]).tolist() == [[True, True], [True, True]]
    assert componentwise_leq([], []).shape == (0, 0)
