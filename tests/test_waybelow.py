from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lub_oracle, naive_directed_sups, naive_way_below, small_posets

from dcpolab.canonex import lifting, powerset, sierpinski
from dcpolab.cli import generate_ep_corpus
from dcpolab.errors import (
    NoInterpolant,
    NotABasis,
    NotARetract,
    NotDirected,
    PreconditionViolated,
    ShapeMismatch,
)
from dcpolab.expo import enumerate_monotone_maps
from dcpolab.finposet import EpPair, MonoMap, closure_from_covers, directed_sup, validate_ep_pair
from dcpolab.idealcomp import (
    AbstractBasis,
    basis_from_order,
    basis_from_waybelow,
    validate_abstract_basis,
)
from dcpolab.waybelow import (
    BasisMap,
    ContinuityData,
    _fibers_ok,
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
    way_below_matrix,
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


@settings(deadline=None, max_examples=60)
@given(small_posets())
def test_way_below_routes_match_naive_property(poset):
    directed = naive_directed_sups(poset)
    els = poset.elements
    naive = [[naive_way_below(poset, x, y, directed) for y in els] for x in els]
    enumerated = [[way_below_enumerated(poset, x, y) for y in els] for x in els]
    reduced = [[way_below_reduced(poset, x, y) for y in els] for x in els]
    assert enumerated == naive
    assert reduced == naive
    assert way_below_matrix(poset).tolist() == naive


def test_way_below_matrix_is_read_only(two_chain):
    chain17 = closure_from_covers([f"c{i}" for i in range(17)], [(f"c{i}", f"c{i + 1}") for i in range(16)])
    for poset in (two_chain, chain17):
        with pytest.raises(ValueError):
            way_below_matrix(poset)[0, 0] = False
        assert way_below_matrix(poset) is way_below_matrix(poset)
    for table in (two_chain.directed_table[0], two_chain.directed_table[1], two_chain.lub_table):
        with pytest.raises(ValueError):
            table[0] = 0


def test_way_below_matrix_equal_for_separately_built_equal_posets():
    covers = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    for n in (4, 18):
        extra = [f"c{i}" for i in range(n - 4)]
        chain = list(zip(["top"] + extra, extra))
        first = closure_from_covers(("bot", "a", "b", "top", *extra), covers + chain)
        second = closure_from_covers(("bot", "a", "b", "top", *extra), covers + chain)
        assert first == second
        assert np.array_equal(way_below_matrix(first), way_below_matrix(second))


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


def _fibers_oracle(poset, indices, relation):
    """Each fiber, as names, has ``directed_sup`` x; not directed is a failure."""
    for x, name in enumerate(poset.elements):
        fiber = [poset.elements[b] for b in sorted(set(indices)) if relation[b, x]]
        try:
            if directed_sup(poset, fiber) != name:
                return False
        except NotDirected:
            return False
    return True


@settings(deadline=None, max_examples=120)
@given(small_posets(), st.data())
def test_fibers_ok_matches_directed_sup_per_fiber(poset, data):
    n = poset.n
    cells = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    kind = data.draw(st.sampled_from(["leq", "way_below", "inside_leq", "arbitrary"]))
    if kind == "leq":
        relation = poset.leq
    elif kind == "way_below":
        relation = way_below_matrix(poset)
    else:
        drawn = np.array(data.draw(cells), dtype=bool).reshape(n, n)
        relation = drawn | np.eye(n, dtype=bool)
        if kind == "inside_leq":
            relation &= poset.leq
    # Most images miss nothing or one element, so both verdicts come up.
    missing = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 3)))
    indices = [i for i in range(n) if i not in missing]
    expected = _fibers_oracle(poset, indices, relation)
    assert _fibers_ok(poset, np.array(indices, dtype=np.intp), relation) == expected


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


def _shuffled_basis(poset, seed):
    """Labels whose values are out of canonical order, one value repeated and
    (for some seeds) one element left out."""
    rng = random.Random(seed)
    values = rng.sample(poset.elements, poset.n - seed % 2) + [rng.choice(poset.elements)]
    rng.shuffle(values)
    labels = tuple(f"L{k}" for k in range(len(values)))
    return BasisMap(poset, labels, dict(zip(labels, values)))


def _scan(poset, basis, lows, high):
    """The first label, in labels order, strictly between lows and high, read
    pair by pair off the reduced route."""
    for b in basis.labels:
        v = basis.value(b)
        if all(way_below_reduced(poset, x, v) for x in lows) and way_below_reduced(poset, v, high):
            return b
    return None


def _interpolant_or_error(interpolate, *args):
    try:
        return interpolate(*args)
    except (PreconditionViolated, NoInterpolant) as exc:
        return type(exc)


def test_slice_readers_fixed_basis(diamond):
    labels = ("t", "b2", "a", "b1", "x")
    beta = BasisMap(diamond, labels, {"t": "top", "b2": "bot", "a": "a", "b1": "bot", "x": "b"})
    assert beta.way_fiber("a") == ("b2", "a", "b1")
    assert beta.way_fiber("top") == labels
    assert interpolate_unary(diamond, beta, "bot", "top") == "t"
    assert interpolate_unary(diamond, beta, "bot", "a") == "b2"
    assert interpolate_binary(diamond, beta, "a", "b", "top") == "t"
    assert interpolate_binary(diamond, beta, "bot", "bot", "b") == "b2"


def test_slice_readers_match_per_label_scan(small_corpus):
    for seed, poset in enumerate(small_corpus):
        if poset.n == 0:
            continue
        beta = _shuffled_basis(poset, seed)
        els = poset.elements
        for x in els:
            scan = tuple(b for b in beta.labels if way_below_reduced(poset, beta.value(b), x))
            assert beta.way_fiber(x) == scan
        for x, y in itertools.product(els, repeat=2):
            expected = PreconditionViolated if not way_below_reduced(poset, x, y) else _scan(poset, beta, [x], y)
            got = _interpolant_or_error(interpolate_unary, poset, beta, x, y)
            assert got == (NoInterpolant if expected is None else expected)
        for x, y, z in itertools.product(els, repeat=3):
            if not (way_below_reduced(poset, x, z) and way_below_reduced(poset, y, z)):
                expected = PreconditionViolated
            else:
                expected = _scan(poset, beta, [x, y], z)
            got = _interpolant_or_error(interpolate_binary, poset, beta, x, y, z)
            assert got == (NoInterpolant if expected is None else expected)


def _fibers_scan(poset, basis, related):
    """Each fiber {value(b) | related(value(b), x)} is directed with supremum
    x, decided label by label and pair by pair."""
    for x in poset.elements:
        fiber = [basis.value(b) for b in basis.labels if related(basis.value(b), x)]
        directed = all(
            any(poset.le(a, u) and poset.le(c, u) for u in fiber) for a in fiber for c in fiber
        )
        if not fiber or not directed or lub_oracle(poset, fiber) != x:
            return False
    return True


def _relation_scan(basis, related, small):
    """The derived abstract basis, or NotABasis, entry by entry."""
    if not small:
        return NotABasis
    values = [basis.value(b) for b in basis.labels]
    prec = [[related(u, v) for v in values] for u in values]
    derived = AbstractBasis(basis.labels, np.array(prec, dtype=bool).reshape(len(values), -1))
    ok, _ = validate_abstract_basis(derived)
    return (derived.carrier, derived.prec.tobytes()) if ok else NotABasis


def _derived_or_error(derive, poset, basis):
    try:
        out = derive(poset, basis)
    except NotABasis:
        return NotABasis
    return out.carrier, out.prec.tobytes()


def test_basis_checks_match_per_pair_oracles(small_corpus):
    for seed, poset in enumerate(small_corpus):
        if poset.n == 0:
            continue
        beta = _shuffled_basis(poset, seed)
        way = functools.partial(way_below_reduced, poset)
        small = _fibers_scan(poset, beta, way)
        compact = (
            small
            and all(way(beta.value(b), beta.value(b)) for b in beta.labels)
            and _fibers_scan(poset, beta, poset.le)
        )
        assert check_small_basis(poset, beta) is small
        assert check_small_compact_basis(poset, beta) is compact
        for x in poset.elements:
            scan = tuple(b for b in beta.labels if poset.le(beta.value(b), x))
            assert beta.down_fiber(x) == scan
        for x, y in itertools.product(poset.elements, repeat=2):
            scan = all(way(beta.value(b), y) for b in beta.labels if way(beta.value(b), x))
            assert leq_via_basis(poset, beta, x, y) is scan
        for derive, related in ((basis_from_waybelow, way), (basis_from_order, poset.le)):
            expected = _relation_scan(beta, related, small)
            assert _derived_or_error(derive, poset, beta) == expected


def test_retract_way_below_transfer_single_pairs():
    for pair in generate_ep_corpus(13, 20, 5):
        s, r = pair.embed, pair.project
        small, big = s.source, s.target
        every = True
        for x, y in itertools.product(small.elements, big.elements):
            scan = not way_below_reduced(big, y, s.apply(x)) or way_below_reduced(
                small, r.apply(y), x
            )
            assert retract_way_below_transfer_check(s, r, x, y) is scan
            every = every and scan
        assert retract_way_below_transfer_check(s, r) is every


def test_basis_checks_refuse_a_basis_on_another_host(diamond, two_chain):
    beta = BasisMap.identity(diamond)
    reordered = closure_from_covers(
        ("top", "b", "a", "bot"), [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    )
    to_bot = MonoMap.from_mapping(diamond, two_chain, {x: "bot" for x in diamond.elements})
    calls = [
        lambda host: check_small_basis(host, beta),
        lambda host: check_small_compact_basis(host, beta),
        lambda host: basis_contains_all_compacts_check(host, beta),
        lambda host: leq_via_basis(host, beta, "a", "top"),
        lambda host: interpolate_unary(host, beta, "bot", "top"),
        lambda host: interpolate_binary(host, beta, "a", "b", "top"),
        lambda host: basis_from_waybelow(host, beta),
        lambda host: basis_from_order(host, beta),
        lambda host: exponential_locally_small_certificate(host, beta, two_chain, to_bot, to_bot),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatch):
            call(reordered)
    equal_copy = closure_from_covers(diamond.elements, diamond.covers())
    assert check_small_compact_basis(equal_copy, beta)
    assert leq_via_basis(equal_copy, beta, "a", "top")


def test_compacts_match_naive_oracle(small_corpus):
    for poset in small_corpus:
        assert compacts(poset) == tuple(x for x in poset.elements if naive_way_below(poset, x, x))


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
