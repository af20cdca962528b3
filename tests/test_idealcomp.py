from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fold_directify,
    loop_directed_sup,
    loop_idl_iso_continuous_check,
    naive_ideals,
    naive_is_ideal,
    naive_validate_abstract_basis,
    one_entry_changed,
    relations,
)

from dcpolab import idealcomp
from dcpolab.canonex import powerset, sierpinski
from dcpolab.cli import generate_basis_corpus, generate_lattice_corpus
from dcpolab.errors import CarrierTooLarge, NoJoins, NotMonotone, UnknownElement
from dcpolab.expo import enumerate_monotone_maps
from dcpolab.finposet import FinPoset, closure_from_covers, is_scott_continuous, validate_ep_pair
from dcpolab.idealcomp import (
    AbstractBasis,
    basis_from_order,
    basis_from_waybelow,
    directify,
    enumerate_ideals,
    ideal_is_rounded,
    ideal_name,
    idl_basis_check,
    idl_ep_pair,
    idl_iso_algebraic_check,
    idl_iso_continuous_check,
    idl_poset,
    idl_way_below,
    is_ideal,
    mediating_map,
    principal_ideal,
    validate_abstract_basis,
)
from dcpolab.indcomp import DirectedFamily
from dcpolab.waybelow import BasisMap, way_below


def reflexive_two_chain():
    return AbstractBasis.from_pairs(
        ("a", "b"), [("a", "a"), ("b", "b"), ("a", "b")]
    )


def test_validate_reflexive_transitive_ok():
    ok, witness = validate_abstract_basis(reflexive_two_chain())
    assert ok and witness is None


def test_validate_empty_carrier():
    ok, _ = validate_abstract_basis(AbstractBasis.from_pairs((), []))
    assert ok


def test_validate_strict_chain_fails_nullary():
    ok, witness = validate_abstract_basis(AbstractBasis.from_pairs(("a", "b"), [("a", "b")]))
    assert not ok
    assert witness[0] == "nullary-interpolation" and witness[1] == "a"


def test_validate_reports_transitivity():
    ab = AbstractBasis.from_pairs(
        ("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
    )
    ok, witness = validate_abstract_basis(ab)
    assert not ok and witness[0] == "transitivity"


def test_is_ideal_principal_and_empty():
    ab = reflexive_two_chain()
    assert is_ideal(ab, principal_ideal(ab, "b"))
    assert not is_ideal(ab, frozenset())


def test_is_ideal_non_lower_set():
    ab = reflexive_two_chain()
    assert not is_ideal(ab, {"b"})


def test_principal_ideal_reflexive_self_membership():
    ab = reflexive_two_chain()
    assert "a" in principal_ideal(ab, "a")


def test_principal_ideal_strict_excludes_self():
    # a strict-topped chain: c has no self-loop
    ab = AbstractBasis.from_pairs(
        ("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("a", "b"), ("a", "c"), ("b", "c")],
    )
    ok, _ = validate_abstract_basis(ab)
    assert ok
    assert "c" not in principal_ideal(ab, "c")


def test_principal_ideal_monotone(small_corpus):
    for basis in generate_basis_corpus(3, 12, 5):
        for a in basis.carrier:
            for b in basis.carrier:
                if basis.prec_holds(a, b):
                    assert principal_ideal(basis, a) <= principal_ideal(basis, b)


def test_enumerate_ideals_reflexive_chain_and_antichain():
    assert enumerate_ideals(reflexive_two_chain()) == [
        frozenset({"a"}),
        frozenset({"a", "b"}),
    ]
    anti = AbstractBasis.from_pairs(("a", "b"), [("a", "a"), ("b", "b")])
    assert enumerate_ideals(anti) == [frozenset({"a"}), frozenset({"b"})]


def test_enumerate_ideals_guard():
    carrier = tuple(f"c{i}" for i in range(17))
    ab = AbstractBasis.from_pairs(carrier, [(c, c) for c in carrier])
    with pytest.raises(CarrierTooLarge):
        enumerate_ideals(ab)


def test_enumerate_ideals_order_basis_of_powerset_4():
    # sixteen labels: the whole 2^16 subset scan, one principal ideal each
    lattice, _ = powerset(4)
    P = lattice.poset
    ab = basis_from_order(P, BasisMap.identity(P))
    completion = idl_poset(ab)
    assert set(completion.ideals) == {principal_ideal(ab, x) for x in P.elements}
    assert idl_iso_algebraic_check(P, BasisMap.identity(P))


@settings(deadline=None, max_examples=80)
@given(relations())
def test_ideals_and_their_order_match_the_naive_oracle(basis):
    ideals = naive_ideals(basis)
    assert enumerate_ideals(basis) == ideals
    completion = idl_poset(basis)
    assert list(completion.ideals) == ideals
    assert completion.poset.leq.tolist() == [[a <= b for b in ideals] for a in ideals]


@settings(deadline=None, max_examples=80)
@given(relations(), st.data())
def test_is_ideal_matches_the_naive_oracle(basis, data):
    members = st.sets(st.sampled_from(basis.carrier)) if basis.n else st.just(set())
    for subset in data.draw(st.lists(members, max_size=10)):
        assert is_ideal(basis, subset) == naive_is_ideal(basis, subset)


@settings(deadline=None, max_examples=200)
@given(relations())
def test_validate_abstract_basis_matches_the_loop_oracle(basis):
    expected = naive_validate_abstract_basis(basis)
    assert validate_abstract_basis(basis) == expected
    with mock.patch.object(idealcomp, "_SLAB_CELLS", 1):  # one plane per slab
        assert validate_abstract_basis(basis) == expected


def test_is_ideal_past_a_machine_word():
    carrier = tuple(f"c{i}" for i in range(70))
    ab = AbstractBasis.from_pairs(carrier, [(c, c) for c in carrier] + [("c1", "c65")])
    assert is_ideal(ab, {"c65", "c1"})
    assert not is_ideal(ab, {"c65"})
    assert not is_ideal(ab, {"c1", "c66"})


def test_ideals_are_rounded():
    for basis in generate_basis_corpus(17, 20, 5):
        for ideal in enumerate_ideals(basis):
            assert ideal_is_rounded(basis, ideal)


def test_idl_poset_two_chain():
    completion = idl_poset(reflexive_two_chain())
    assert completion.poset.elements == ("{a}", "{a,b}")
    assert completion.poset.le("{a}", "{a,b}")


def test_idl_poset_matches_directed_downset_scan():
    # oracle: the ideals of a reflexive basis are its directed down-sets
    diamond = closure_from_covers(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )
    ab = AbstractBasis(diamond.elements, diamond.leq)
    got = set(enumerate_ideals(ab))
    expected = set()
    for r in range(1, diamond.n + 1):
        for combo in itertools.combinations(diamond.elements, r):
            lower = all(
                y in combo for x in combo for y in diamond.elements if diamond.le(y, x)
            )
            directed = all(
                any(diamond.le(x, u) and diamond.le(y, u) for u in combo)
                for x in combo
                for y in combo
            )
            if lower and directed:
                expected.add(frozenset(combo))
    assert got == expected


def test_idl_way_below_principal_member():
    ab = reflexive_two_chain()
    for ideal in enumerate_ideals(ab):
        for b in ideal:
            assert idl_way_below(ab, principal_ideal(ab, b), ideal)


def test_idl_way_below_whole_basis_with_top():
    ab = reflexive_two_chain()
    whole = frozenset({"a", "b"})
    assert idl_way_below(ab, whole, whole)


def test_idl_way_below_matches_brute_force(small_corpus):
    for basis in generate_basis_corpus(29, 30, 5):
        completion = idl_poset(basis)
        for i_ideal in completion.ideals:
            for j_ideal in completion.ideals:
                assert idl_way_below(basis, i_ideal, j_ideal) == way_below(
                    completion.poset,
                    completion.name_of(i_ideal),
                    completion.name_of(j_ideal),
                )


def test_idl_way_below_three_clause_equivalence():
    # member-bound clause and nested-principal clause agree with the relation
    for basis in generate_basis_corpus(97, 20, 5):
        completion = idl_poset(basis)
        for i_ideal in completion.ideals:
            for j_ideal in completion.ideals:
                member_bound = idl_way_below(basis, i_ideal, j_ideal)
                nested = any(
                    basis.prec_holds(a, b)
                    and i_ideal <= principal_ideal(basis, a)
                    and principal_ideal(basis, a) <= principal_ideal(basis, b)
                    and principal_ideal(basis, b) <= j_ideal
                    for a in basis.carrier
                    for b in basis.carrier
                )
                brute = way_below(
                    completion.poset,
                    completion.name_of(i_ideal),
                    completion.name_of(j_ideal),
                )
                assert member_bound == nested == brute


def test_idl_basis_check_reflexive_corpus():
    for basis in generate_basis_corpus(31, 16, 5):
        assert idl_basis_check(basis)


def test_principal_basis_small_even_without_reflexivity():
    # the completion always has the principal ideals as a small basis; the
    # compactness upgrade is reserved for reflexive relations
    from dcpolab.waybelow import check_small_basis as small

    for basis in generate_basis_corpus(41, 20, 5):
        completion = idl_poset(basis)
        assert small(completion.poset, completion.principal_basis())


def test_every_ideal_is_sup_of_principals():
    from dcpolab.finposet import directed_sup

    for basis in generate_basis_corpus(37, 12, 5):
        completion = idl_poset(basis)
        for ideal in completion.ideals:
            union = frozenset().union(*(principal_ideal(basis, b) for b in ideal))
            assert union == ideal
            principal_names = [
                completion.name_of(principal_ideal(basis, b)) for b in ideal
            ]
            assert directed_sup(completion.poset, set(principal_names)) == completion.name_of(
                ideal
            )


def test_mediating_map_identity_basis(two_chain):
    ab = reflexive_two_chain()
    completion = idl_poset(ab)
    fbar = mediating_map(completion, {"a": "bot", "b": "top"}, two_chain)
    assert is_scott_continuous(fbar)
    assert fbar.apply(completion.name_of(principal_ideal(ab, "a"))) == "bot"
    assert fbar.apply(completion.name_of(principal_ideal(ab, "b"))) == "top"


def test_mediating_map_constant(two_chain):
    ab = reflexive_two_chain()
    completion = idl_poset(ab)
    fbar = mediating_map(completion, {"a": "bot", "b": "bot"}, two_chain)
    assert set(fbar.apply(x) for x in completion.poset.elements) == {"bot"}


def test_mediating_map_rejects_non_monotone(two_chain):
    ab = reflexive_two_chain()
    completion = idl_poset(ab)
    with pytest.raises(NotMonotone):
        mediating_map(completion, {"a": "top", "b": "bot"}, two_chain)


def test_mediating_map_unique_continuous_extension(two_chain):
    # exactly one continuous map extends the basis assignment along principals
    ab = reflexive_two_chain()
    completion = idl_poset(ab)
    assignment = {"a": "bot", "b": "top"}
    fbar = mediating_map(completion, assignment, two_chain)
    extensions = [
        m
        for m in enumerate_monotone_maps(completion.poset, two_chain)
        if is_scott_continuous(m)
        and all(
            m.apply(completion.name_of(principal_ideal(ab, b))) == assignment[b]
            for b in ab.carrier
        )
    ]
    assert extensions == [fbar]


def test_directify_examples(diamond):
    fam = DirectedFamily.from_names(diamond, ("bot",))
    out = directify(diamond, fam)
    assert out.value(()) == "bot"
    singles = [label for label in out.labels if len(label) == 1]
    assert {out.value(l) for l in singles} == {"bot"}
    fam2 = {"u": "a", "v": "b"}
    out2 = directify(diamond, fam2)
    assert out2.value(("u", "v")) == "top"
    assert directed_sup_equals(diamond, out2, "top")
    # joins of compact members stay compact
    from dcpolab.waybelow import is_compact

    assert all(is_compact(diamond, v) for v in out2.image_names())


def directed_sup_equals(poset, fam, expected):
    from dcpolab.finposet import directed_sup

    return directed_sup(poset, fam.image_names()) == expected


def test_directify_requires_joins():
    no_bottom = closure_from_covers(("a", "b"), [])
    with pytest.raises(NoJoins):
        directify(no_bottom, {"u": "a"})


def test_basis_from_order_and_waybelow_coincide_on_finite(small_corpus):
    for poset in small_corpus[:10]:
        beta = BasisMap.identity(poset)
        by_way = basis_from_waybelow(poset, beta)
        by_order = basis_from_order(poset, beta)
        assert (by_way.prec == by_order.prec).all()


def test_basis_from_order_sierpinski():
    poset, beta = sierpinski()
    ab = basis_from_order(poset, beta)
    assert ab.is_reflexive()
    assert ab.prec_holds("0", "1") and not ab.prec_holds("1", "0")


def test_basis_from_relation_always_validates(small_corpus):
    for poset in small_corpus[:20]:
        beta = BasisMap.identity(poset)
        for build in (basis_from_waybelow, basis_from_order):
            ok, witness = validate_abstract_basis(build(poset, beta))
            assert ok, witness


def test_idl_iso_continuous_identity_basis(small_corpus):
    for poset in small_corpus[:20]:
        assert idl_iso_continuous_check(poset, BasisMap.identity(poset))


def test_idl_iso_continuous_check_matches_the_loops(small_corpus, monkeypatch):
    verdicts = set()
    for poset in small_corpus[:15]:
        beta = BasisMap.identity(poset)
        pair, completion = idl_ep_pair(poset, beta, use_way_below=True)
        for case in one_entry_changed(pair):
            monkeypatch.setattr(idealcomp, "idl_ep_pair", mock.Mock(return_value=(case, completion)))
            verdict = idl_iso_continuous_check(poset, beta)
            assert verdict is loop_idl_iso_continuous_check(poset, beta)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_idl_iso_singleton():
    point = closure_from_covers(("p",), [])
    assert idl_iso_continuous_check(point, BasisMap.identity(point))
    assert idl_iso_algebraic_check(point, BasisMap.identity(point))


def test_idl_iso_algebraic_identity_basis(small_corpus):
    for poset in small_corpus[:20]:
        assert idl_iso_algebraic_check(poset, BasisMap.identity(poset))


def test_idl_ep_pair_section_law(small_corpus):
    for poset in small_corpus[:10]:
        pair, _ = idl_ep_pair(poset, BasisMap.identity(poset), use_way_below=False)
        assert validate_ep_pair(pair)
        for x in poset.elements:
            assert pair.project.apply(pair.embed.apply(x)) == x


def test_fiber_lower_set_and_semidirected_criteria(small_corpus):
    # with the relation b < c given by value order, fibers are lower sets;
    # with value way-below implying the relation, fibers are semidirected
    for poset in small_corpus[:10]:
        beta = BasisMap.identity(poset)
        ab = basis_from_order(poset, beta)
        for x in poset.elements:
            fiber = frozenset(
                b for b in beta.labels if way_below(poset, beta.value(b), x)
            )
            for b in fiber:
                for a in beta.labels:
                    if ab.prec_holds(a, b):
                        assert a in fiber
            for b1 in fiber:
                for b2 in fiber:
                    assert any(
                        ab.prec_holds(b1, c) and ab.prec_holds(b2, c) for c in fiber
                    )


def test_subbasis_lemma_by_thinning(small_corpus):
    rng = random.Random(99)
    for poset in small_corpus[:15]:
        beta = BasisMap.identity(poset)
        for x in poset.elements:
            full = [beta.value(b) for b in beta.way_fiber(x)]
            thinned = [v for v in full if rng.random() < 0.6]
            from dcpolab.finposet import directed_sup, is_directed

            if thinned and is_directed(poset, thinned) and directed_sup(
                poset, thinned
            ) == x:
                assert is_directed(poset, full)
                assert directed_sup(poset, full) == x


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(generate_lattice_corpus(71, 30, 6)), st.data())
def test_directify_matches_the_per_subset_fold(poset, data):
    # few distinct values under many labels, so duplicates are common
    values = data.draw(st.lists(st.sampled_from(poset.elements), max_size=8))
    fam = {f"u{i}": v for i, v in enumerate(values)}
    out = directify(poset, fam)
    assert (out.labels, out.mapping) == fold_directify(poset, fam)


def test_mediating_map_names_the_first_violation_in_carrier_order(diamond):
    # b < a < c; a -> a, b -> b, c -> b breaks the order at (a, c) and at
    # (b, a), and the pair with the earlier left member is reported
    ab = AbstractBasis.from_pairs(
        ("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("c", "c"), ("b", "a"), ("a", "c"), ("b", "c")],
    )
    completion = idl_poset(ab)
    with pytest.raises(NotMonotone, match=r"^assignment breaks monotonicity at 'a' < 'c'$"):
        mediating_map(completion, {"a": "a", "b": "b", "c": "b"}, diamond)


def test_abstract_basis_index_first_position_and_unknown_member():
    basis = AbstractBasis(("x", "y", "x"), np.eye(3, dtype=bool))
    assert [basis.index(m) for m in ("x", "y")] == [0, 1]
    for member in ("zz", ["x"]):
        with pytest.raises(UnknownElement, match=r"is not in the carrier$"):
            basis.index(member)


def test_separately_built_bases_and_completions_are_equal_and_hash_alike():
    first, second = reflexive_two_chain(), reflexive_two_chain()
    assert first is not second and first.prec is not second.prec
    assert first == second and hash(first) == hash(second)
    assert idl_poset(first) == idl_poset(second)
    assert hash(idl_poset(first)) == hash(idl_poset(second))
    strict = AbstractBasis(first.carrier, first.prec & ~np.eye(2, dtype=bool))
    assert first != strict and first != first.carrier
    assert AbstractBasis.from_pairs((), ()) == AbstractBasis((), np.zeros((0, 0), bool))


def strict_topped_chain():
    """a < b < c with a and b reflexive and c not."""
    return AbstractBasis.from_pairs(
        ("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("a", "b"), ("a", "c"), ("b", "c")],
    )


def table_corpus():
    return generate_basis_corpus(43, 16, 5) + [strict_topped_chain()]


def test_completion_tables_match_the_direct_routes():
    for basis in table_corpus():
        completion = idl_poset(basis)
        assert idl_poset(basis) is completion
        for j, b in enumerate(basis.carrier):
            column = frozenset(basis.carrier[i] for i in range(basis.n) if basis.prec[i, j])
            assert principal_ideal(basis, b) == column
        for name, ideal in zip(completion.poset.elements, completion.ideals):
            assert completion.name_of(ideal) == ideal_name(basis, ideal) == name
            assert completion.name_of(sorted(ideal)) == name
            assert completion.name_of(set(ideal)) == name
        assert completion.name_of(frozenset()) == ideal_name(basis, frozenset()) == "{}"
        with pytest.raises(UnknownElement):
            completion.name_of(["zz"])


def test_idl_basis_check_reuses_the_completion():
    for basis in table_corpus():
        idl_poset(basis)
        with mock.patch.object(idealcomp, "_ideal_masks", side_effect=AssertionError("rebuilt")):
            assert idl_basis_check(basis)


def test_mediating_map_matches_the_per_ideal_loop():
    for basis in table_corpus():
        completion = idl_poset(basis)
        leq = basis.prec | np.eye(basis.n, dtype=bool)
        # the host in carrier order and reversed, so no index order hides the sup
        hosts = [FinPoset(basis.carrier, leq), FinPoset(basis.carrier[::-1], leq[::-1, ::-1])]
        identity = {b: b for b in basis.carrier}
        principal = {b: completion.name_of(principal_ideal(basis, b)) for b in basis.carrier}
        for target, assignment in [(host, identity) for host in hosts] + [(completion.poset, principal)]:
            out = mediating_map(completion, assignment, target)
            expected = [
                target.index(loop_directed_sup(target, {assignment[m] for m in ideal}))
                for ideal in completion.ideals
            ]
            assert list(out.graph) == expected


def test_repeated_label_keeps_the_names_ideal_name_gives():
    # positions 0 and 2 both carry x and lie under each other; y lies under both
    prec = np.array([[1, 0, 1], [1, 1, 1], [1, 0, 1]], dtype=bool)
    basis = AbstractBasis(("x", "y", "x"), prec)
    completion = idl_poset(basis)
    assert completion.ideals == (frozenset("y"), frozenset("xy"))
    assert completion.poset.elements == ("{b1}", "{b0,b1}")
    for ideal in completion.ideals:
        assert completion.name_of(ideal) == ideal_name(basis, ideal)
    assert principal_ideal(basis, "x") == frozenset("xy")
    assert completion.principal_basis().into == {"x": "{b0,b1}", "y": "{b1}"}
