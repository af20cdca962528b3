from __future__ import annotations

import itertools

import pytest

from conftest import loop_exceeds
from dcpolab.errors import NotDirected
from dcpolab.indcomp import (
    DirectedFamily,
    all_directed_subset_families,
    approximating_class_is_unique_adjunct,
    exceeds,
    ind_sup,
    is_left_adjunct,
    mutually_exceed,
    poset_reflection,
    sup_map_monotone_check,
)
from dcpolab.waybelow import approximates


def test_directed_family_rejects_undirected(diamond):
    with pytest.raises(NotDirected):
        DirectedFamily.from_names(diamond, ("a", "b"))


def test_exceeds_reflexive(small_corpus):
    for poset in small_corpus[:15]:
        for fam in all_directed_subset_families(poset):
            assert exceeds(poset, fam, fam)


def test_exceeds_chains(two_chain):
    low = DirectedFamily.from_names(two_chain, ("bot",))
    high = DirectedFamily.from_names(two_chain, ("top",))
    assert exceeds(two_chain, low, high)
    assert not exceeds(two_chain, high, low)


def test_exceeds_transitive(small_corpus):
    for poset in small_corpus[:8]:
        fams = all_directed_subset_families(poset)
        for a, b, c in itertools.product(fams, repeat=3):
            if exceeds(poset, a, b) and exceeds(poset, b, c):
                assert exceeds(poset, a, c)


def test_ind_sup_single_family(diamond):
    fam = DirectedFamily.from_names(diamond, ("bot", "a"))
    out = ind_sup(diamond, {"only": fam})
    assert sorted(out.image_names()) == sorted(fam.image_names())


def test_ind_sup_two_comparable_chains(two_chain):
    low = DirectedFamily.from_names(two_chain, ("bot",))
    high = DirectedFamily.from_names(two_chain, ("bot", "top"))
    out = ind_sup(two_chain, {"l": low, "h": high})
    assert set(out.image_names()) == {"bot", "top"}


def test_ind_sup_rejects_undirected_outer(diamond):
    a = DirectedFamily.from_names(diamond, ("a",))
    b = DirectedFamily.from_names(diamond, ("b",))
    with pytest.raises(NotDirected):
        ind_sup(diamond, {"a": a, "b": b})


def test_ind_sup_is_least_upper_bound(small_corpus):
    # the disjoint-union family exceeds each component and sits under any
    # family exceeding all of them, over every directed pair of families
    for poset in small_corpus[:8]:
        fams = all_directed_subset_families(poset)
        for f1, f2 in itertools.combinations(fams, 2):
            bounded = [
                g for g in fams if exceeds(poset, f1, g) and exceeds(poset, f2, g)
            ]
            if not bounded:
                continue
            out = ind_sup(poset, {0: f1, 1: f2, 2: bounded[0]})
            for comp in (f1, f2):
                assert exceeds(poset, comp, out)
            for g in fams:
                if exceeds(poset, f1, g) and exceeds(poset, f2, g) and exceeds(
                    poset, bounded[0], g
                ):
                    assert exceeds(poset, out, g)


def test_sup_map_monotone(two_chain, small_corpus):
    low = DirectedFamily.from_names(two_chain, ("bot",))
    high = DirectedFamily.from_names(two_chain, ("top",))
    assert sup_map_monotone_check(two_chain, low, low)
    assert sup_map_monotone_check(two_chain, low, high)
    for poset in small_corpus[:10]:
        fams = all_directed_subset_families(poset)
        for a, b in itertools.product(fams, repeat=2):
            assert sup_map_monotone_check(poset, a, b)


def test_left_adjunct_of_approximating_family(small_corpus):
    for poset in small_corpus[:10]:
        for x in poset.elements:
            fam = DirectedFamily.from_names(
                poset, tuple(y for y in poset.elements if poset.le(y, x))
            )
            assert approximates(poset, fam, x)
            assert is_left_adjunct(poset, fam, x)


def test_left_adjunct_bottom_family_fails_for_top(two_chain):
    fam = DirectedFamily.from_names(two_chain, ("bot",))
    assert not is_left_adjunct(two_chain, fam, "top")


def test_left_adjunct_constant_at_compact(diamond):
    fam = DirectedFamily.from_names(diamond, ("a",))
    assert is_left_adjunct(diamond, fam, "a")


def test_approximates_iff_left_adjunct_exhaustive(small_corpus):
    for poset in small_corpus:
        if poset.n > 4:
            continue
        for fam in all_directed_subset_families(poset):
            for x in poset.elements:
                assert approximates(poset, fam, x) == is_left_adjunct(poset, fam, x)


def test_reflection_identifies_doubled_family(two_chain):
    single = DirectedFamily.from_names(two_chain, ("bot",))
    doubled = DirectedFamily(two_chain, ("i1", "i2"), {"i1": "bot", "i2": "bot"})
    _, classes = poset_reflection(two_chain, [single, doubled])
    assert classes[0] == classes[1]


def test_reflection_singleton(diamond):
    fam = DirectedFamily.from_names(diamond, ("a",))
    quotient, classes = poset_reflection(diamond, [fam])
    assert quotient.n == 1
    assert classes == [quotient.elements[0]]


def test_reflection_two_chain_downsets(two_chain):
    fams = all_directed_subset_families(two_chain)
    quotient, _ = poset_reflection(two_chain, fams)
    assert quotient.n == 2
    names = sorted(quotient.elements)
    assert quotient.le(names[1], names[0]) or quotient.le(names[0], names[1])


def test_reflection_order_well_defined(small_corpus):
    # mutually exceeding representatives land in one class; order via exceeds
    for poset in small_corpus[:10]:
        fams = all_directed_subset_families(poset)
        quotient, classes = poset_reflection(poset, fams)
        for fam, cls in zip(fams, classes):
            for fam2, cls2 in zip(fams, classes):
                if cls == cls2:
                    assert mutually_exceed(poset, fam, fam2)
                else:
                    assert quotient.le(cls, cls2) == exceeds(poset, fam, fam2)


def test_unique_adjunct_class(small_corpus):
    for poset in small_corpus[:10]:
        fams = all_directed_subset_families(poset)
        for x in poset.elements:
            assert approximating_class_is_unique_adjunct(poset, fams, x)


def _label_variants(fam):
    """The family, then one with every label doubled and one with its labels
    reversed; all three have the same image."""
    doubled = tuple((k, i) for k in (0, 1) for i in fam.labels)
    return [
        fam,
        DirectedFamily(fam.poset, doubled, {(k, i): fam.value(i) for k, i in doubled}),
        DirectedFamily(fam.poset, fam.labels[::-1], fam.mapping),
    ]


def test_ind_side_matches_loop_exceeds(small_corpus):
    # every verdict of the module against the label-by-label definition, on
    # each directed subset and its doubled and reversed relabellings
    for poset in small_corpus:
        subsets = all_directed_subset_families(poset)
        fams = [v for fam in subsets for v in _label_variants(fam)]
        idx = range(len(fams))
        loop = [[loop_exceeds(poset, a, b) for b in fams] for a in fams]
        assert [[exceeds(poset, a, b) for b in fams] for a in fams] == loop

        # fams[3 * k] is the k-th subset of directed_table
        _, sups = poset.directed_table
        for i, x in itertools.product(idx, range(poset.n)):
            adjunct = all(loop[i][3 * k] == poset.leq[x, s] for k, s in enumerate(sups.tolist()))
            assert is_left_adjunct(poset, fams[i], poset.elements[x]) == adjunct

        quotient, classes = poset_reflection(poset, fams)
        images = [tuple(sorted(fam.image_names())) for fam in fams]
        for i in idx:
            for j in idx:
                assert (classes[i] == classes[j]) == (loop[i][j] and loop[j][i])
                assert quotient.le(classes[i], classes[j]) == loop[i][j]
            rep = min(images[j] for j in idx if classes[j] == classes[i])
            assert classes[i] == "{" + ",".join(rep) + "}"
        assert quotient.elements == tuple(sorted(set(classes)))

        outers = [(i, j) for i in range(0, len(fams), 3) for j in range(0, len(fams), 3)]
        outers += [(i, i + 1, i + 4) for i in range(len(fams) - 4)]
        for outer in outers:
            families = {k: fams[k] for k in outer}
            if all(any(loop[i][k] and loop[j][k] for k in outer) for i in outer for j in outer):
                ind_sup(poset, families)
            else:
                with pytest.raises(NotDirected):
                    ind_sup(poset, families)
