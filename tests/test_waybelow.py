from __future__ import annotations

import itertools

import pytest

from conftest import naive_way_below

from dcpolab.canonex import lifting, powerset, sierpinski
from dcpolab.cli import generate_ep_corpus
from dcpolab.errors import NotABasis, NotARetract, NotDirected, PreconditionViolated
from dcpolab.expo import enumerate_monotone_maps
from dcpolab.finposet import EpPair, MonoMap, closure_from_covers, validate_ep_pair
from dcpolab.waybelow import (
    BasisMap,
    ContinuityData,
    approximates,
    basis_contains_all_compacts_check,
    check_continuity_data,
    check_small_basis,
    check_small_compact_basis,
    compacts,
    compacts_closed_under_joins_check,
    exponential_locally_small_certificate,
    interpolate_binary,
    interpolate_unary,
    is_compact,
    leq_via_basis,
    retract_way_below_transfer_check,
    transfer_basis_along_retract,
    way_below,
    way_below_enumerated,
    way_below_reduced,
)


def test_way_below_two_chain_by_definition(two_chain):
    assert way_below(two_chain, "bot", "top")
    assert naive_way_below(two_chain, "bot", "top")


def test_way_below_top_reflexive(two_chain):
    assert way_below(two_chain, "top", "top")


def test_way_below_matches_naive_oracle(small_corpus):
    for poset in small_corpus:
        for x in poset.elements:
            for y in poset.elements:
                assert way_below(poset, x, y) == naive_way_below(poset, x, y)


def test_way_below_routes_agree(medium_corpus):
    for poset in medium_corpus:
        for x in poset.elements:
            for y in poset.elements:
                assert way_below_enumerated(poset, x, y) == way_below_reduced(poset, x, y)


def test_way_below_implies_below(medium_corpus):
    for poset in medium_corpus[:40]:
        for x in poset.elements:
            for y in poset.elements:
                if way_below(poset, x, y):
                    assert poset.le(x, y)


def test_way_below_transitive_antisymmetric(small_corpus):
    for poset in small_corpus[:15]:
        els = poset.elements
        for x, y, z in itertools.product(els, repeat=3):
            if way_below(poset, x, y) and way_below(poset, y, z):
                assert way_below(poset, x, z)
        for x, y in itertools.product(els, repeat=2):
            if x != y and way_below(poset, x, y):
                assert not way_below(poset, y, x)


def test_below_waybelow_below_chain_rule(small_corpus):
    # x <= y << v <= w forces x << w
    for poset in small_corpus[:10]:
        els = poset.elements
        for x, y, v, w in itertools.product(els, repeat=4):
            if poset.le(x, y) and way_below(poset, y, v) and poset.le(v, w):
                assert way_below(poset, x, w)


def test_least_element_compact(medium_corpus):
    for poset in medium_corpus:
        if poset.bottom is not None:
            assert is_compact(poset, poset.elements[poset.bottom])


def test_every_finite_element_compact(medium_corpus):
    for poset in medium_corpus[:30]:
        for x in poset.elements:
            assert is_compact(poset, x)


def test_sierpinski_compacts():
    poset, _ = sierpinski()
    assert compacts(poset) == ("bot", "top")


def test_compacts_powerset_and_lifting():
    lattice, _ = powerset(3)
    assert len(compacts(lattice.poset)) == 8
    flat, _ = lifting(2)
    assert compacts(flat) == ("bot", "x0", "x1")


def test_compacts_empty_poset():
    empty = closure_from_covers((), [])
    assert compacts(empty) == ()


def test_compacts_closed_under_joins(two_chain, diamond):
    assert compacts_closed_under_joins_check(two_chain)
    assert compacts_closed_under_joins_check(diamond)
    lattice, _ = powerset(2)
    assert compacts_closed_under_joins_check(lattice.poset)


def test_approximates_constant_family_at_compact(diamond):
    assert approximates(diamond, ["a"], "a")


def test_approximates_sup_mismatch(two_chain):
    assert not approximates(two_chain, ["bot"], "top")


def test_approximates_requires_directed(diamond):
    with pytest.raises(NotDirected):
        approximates(diamond, ["a", "b"], "top")


def test_approximates_basis_fiber(small_corpus):
    for poset in small_corpus[:10]:
        beta = BasisMap.identity(poset)
        assert check_small_basis(poset, beta)
        for x in poset.elements:
            fiber = [beta.value(b) for b in beta.way_fiber(x)]
            assert approximates(poset, fiber, x)


def test_continuity_data_singleton_families(small_corpus):
    for poset in small_corpus[:10]:
        data = ContinuityData(poset, {x: (x,) for x in poset.elements})
        assert check_continuity_data(poset, data)


def test_continuity_data_down_sets(small_corpus):
    for poset in small_corpus[:10]:
        fams = {
            x: tuple(y for y in poset.elements if poset.le(y, x)) for x in poset.elements
        }
        assert check_continuity_data(poset, ContinuityData(poset, fams))


def test_continuity_data_missing_sup(two_chain):
    bad = ContinuityData(two_chain, {"bot": ("bot",), "top": ("bot",)})
    assert not check_continuity_data(two_chain, bad)


def test_small_basis_identity(medium_corpus):
    for poset in medium_corpus[:30]:
        assert check_small_basis(poset, BasisMap.identity(poset))


def test_small_basis_sierpinski_two_element():
    poset, beta = sierpinski()
    assert check_small_basis(poset, beta)
    assert check_small_compact_basis(poset, beta)


def test_small_basis_missing_bottom_fails():
    poset, _ = sierpinski()
    beta = BasisMap(poset, ("1",), {"1": "top"})
    assert not check_small_basis(poset, beta)


def test_small_compact_basis_examples():
    lattice, lists = powerset(2)
    assert check_small_compact_basis(lattice.poset, lists.basis)
    flat, beta = lifting(3)
    assert check_small_compact_basis(flat, beta)


def test_small_basis_implies_compact_on_finite(small_corpus):
    for poset in small_corpus[:15]:
        beta = BasisMap.identity(poset)
        assert check_small_basis(poset, beta)
        assert check_small_compact_basis(poset, beta)


def test_basis_contains_all_compacts(small_corpus):
    poset, beta = sierpinski()
    assert basis_contains_all_compacts_check(poset, beta)
    lattice, lists = powerset(2)
    assert basis_contains_all_compacts_check(lattice.poset, lists.basis)


def test_basis_contains_all_compacts_rejects_sub_basis(two_chain):
    beta = BasisMap(two_chain, ("b",), {"b": "bot"})
    with pytest.raises(NotABasis):
        basis_contains_all_compacts_check(two_chain, beta)


def test_leq_via_basis_matches_leq(small_corpus):
    for poset in small_corpus[:20]:
        beta = BasisMap.identity(poset)
        for x in poset.elements:
            for y in poset.elements:
                assert leq_via_basis(poset, beta, x, y) == poset.le(x, y)


def test_leq_via_basis_incomparable_witness(diamond):
    beta = BasisMap.identity(diamond)
    assert not leq_via_basis(diamond, beta, "a", "b")
    assert leq_via_basis(diamond, beta, "a", "a")


def test_leq_via_basis_non_identity_basis():
    poset, beta = sierpinski()
    for x in poset.elements:
        for y in poset.elements:
            assert leq_via_basis(poset, beta, x, y) == poset.le(x, y)


def test_interpolate_unary_two_chain(two_chain):
    beta = BasisMap.identity(two_chain)
    b = interpolate_unary(two_chain, beta, "bot", "top")
    assert way_below(two_chain, "bot", beta.value(b))
    assert way_below(two_chain, beta.value(b), "top")


def test_interpolate_unary_compact_point(two_chain):
    beta = BasisMap.identity(two_chain)
    assert beta.value(interpolate_unary(two_chain, beta, "top", "top")) == "top"


def test_interpolate_unary_postcondition_on_corpus(small_corpus):
    for poset in small_corpus[:20]:
        beta = BasisMap.identity(poset)
        for x in poset.elements:
            for y in poset.elements:
                if way_below(poset, x, y):
                    b = interpolate_unary(poset, beta, x, y)
                    assert way_below(poset, x, beta.value(b))
                    assert way_below(poset, beta.value(b), y)


def test_interpolate_unary_precondition(diamond):
    with pytest.raises(PreconditionViolated):
        interpolate_unary(diamond, BasisMap.identity(diamond), "a", "b")


def test_interpolate_binary_diamond(diamond):
    beta = BasisMap.identity(diamond)
    assert interpolate_binary(diamond, beta, "a", "b", "top") == "top"


def test_interpolate_binary_reduces_to_unary(two_chain):
    beta = BasisMap.identity(two_chain)
    b = interpolate_binary(two_chain, beta, "bot", "bot", "top")
    assert b == interpolate_unary(two_chain, beta, "bot", "top")


def test_interpolate_binary_postcondition_on_corpus(small_corpus):
    for poset in small_corpus[:12]:
        beta = BasisMap.identity(poset)
        for x, y, z in itertools.product(poset.elements, repeat=3):
            if way_below(poset, x, z) and way_below(poset, y, z):
                b = interpolate_binary(poset, beta, x, y, z)
                v = beta.value(b)
                assert way_below(poset, x, v) and way_below(poset, y, v)
                assert way_below(poset, v, z)


def _diamond_retract(diamond, two_chain):
    section = MonoMap.from_mapping(two_chain, diamond, {"bot": "bot", "top": "top"})
    retraction = MonoMap.from_mapping(
        diamond, two_chain, {"bot": "bot", "a": "bot", "b": "bot", "top": "top"}
    )
    return section, retraction


def test_transfer_basis_identity_retract(two_chain):
    ident = MonoMap.identity(two_chain)
    beta = BasisMap.identity(two_chain)
    out = transfer_basis_along_retract(ident, ident, beta)
    assert out.image_names() == beta.image_names()


def test_transfer_basis_diamond_collapse(two_chain, diamond):
    section, retraction = _diamond_retract(diamond, two_chain)
    out = transfer_basis_along_retract(section, retraction, BasisMap.identity(diamond))
    assert out.image_names() == ("bot", "bot", "bot", "top")
    assert check_small_basis(two_chain, out)


def test_transfer_basis_on_ep_corpus():
    for pair in generate_ep_corpus(9, 25, 5):
        big = pair.embed.target
        out = transfer_basis_along_retract(pair.embed, pair.project, BasisMap.identity(big))
        assert check_small_basis(pair.embed.source, out)


def test_retract_way_below_transfer(two_chain, diamond):
    ident = MonoMap.identity(diamond)
    assert retract_way_below_transfer_check(ident, ident)
    section, retraction = _diamond_retract(diamond, two_chain)
    assert retract_way_below_transfer_check(section, retraction)
    for pair in generate_ep_corpus(13, 20, 5):
        assert retract_way_below_transfer_check(pair.embed, pair.project)


def test_transfer_rejects_misaligned_endpoints(two_chain, diamond):
    section, _ = _diamond_retract(diamond, two_chain)
    with pytest.raises(NotARetract):
        transfer_basis_along_retract(
            section, MonoMap.identity(two_chain), BasisMap.identity(diamond)
        )


def test_transfer_rejects_retraction_that_does_not_undo_section(two_chain, diamond):
    section, _ = _diamond_retract(diamond, two_chain)
    to_bot = MonoMap.from_mapping(diamond, two_chain, {x: "bot" for x in diamond.elements})
    with pytest.raises(NotARetract):
        transfer_basis_along_retract(section, to_bot, BasisMap.identity(diamond))


def test_transfer_rejects_non_monotone_half(two_chain):
    antichain = closure_from_covers(("a", "b"), [])
    section = MonoMap.from_mapping(antichain, two_chain, {"a": "bot", "b": "top"})
    # undoes the section, but sends bot <= top to the incomparable a, b
    retraction = MonoMap(two_chain, antichain, (0, 1), check=False)
    with pytest.raises(NotARetract):
        transfer_basis_along_retract(section, retraction, BasisMap.identity(two_chain))


def test_transfer_needs_retract_laws_not_deflation(two_chain):
    point = closure_from_covers(("p",), [])
    section = MonoMap.from_mapping(point, two_chain, {"p": "top"})
    retraction = MonoMap.from_mapping(two_chain, point, {"bot": "p", "top": "p"})
    assert not validate_ep_pair(EpPair(embed=section, project=retraction))
    out = transfer_basis_along_retract(section, retraction, BasisMap.identity(two_chain))
    assert out.image_names() == ("p", "p")


def test_exponential_locally_small_equal_maps(two_chain):
    beta = BasisMap.identity(two_chain)
    ident = MonoMap.identity(two_chain)
    assert exponential_locally_small_certificate(two_chain, beta, two_chain, ident, ident)


def test_exponential_locally_small_exhaustive():
    chain3 = closure_from_covers(("a", "b", "c"), [("a", "b"), ("b", "c")])
    posets = [closure_from_covers(("x", "y"), [("x", "y")]), chain3]
    for dom in posets:
        beta = BasisMap.identity(dom)
        for cod in posets:
            maps = enumerate_monotone_maps(dom, cod)
            for f in maps:
                for g in maps:
                    assert exponential_locally_small_certificate(dom, beta, cod, f, g)
