"""Acceptance suite: one test per criterion, exact checks, stated time budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Every check is exact (no tolerances); time budgets are asserted.
"""

from __future__ import annotations

import math
import random
import time

from conftest import pointwise_join

from dcpolab.bilimit import dinfty_demo, finite_bilimit, scott_tower
from dcpolab.canonex import powerset, sierpinski
from dcpolab.cli import (
    generate_basis_corpus,
    generate_corpus,
    generate_ep_corpus,
    generate_lattice_corpus,
)
from dcpolab.dyadics import (
    MIDDLE,
    dy_eq,
    dy_interpolant,
    dy_prec,
    left,
    right,
    to_rational,
)
from dcpolab.expo import enumerate_monotone_maps, exponential, step_basis, step_function
from dcpolab.finposet import validate_ep_pair
from dcpolab.idealcomp import idl_basis_check, idl_iso_algebraic_check, idl_poset, idl_way_below
from dcpolab.indcomp import all_directed_subset_families, is_left_adjunct
from dcpolab.waybelow import (
    BasisMap,
    approximates,
    check_small_basis,
    check_small_compact_basis,
    compacts,
    is_compact,
    retract_way_below_transfer_check,
    transfer_basis_along_retract,
    way_below,
)


def report(number, label, elapsed, budget):
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_1_finite_degeneracy():
    start = time.perf_counter()
    for poset in generate_corpus(1001, 500, 7):
        for x in poset.elements:
            assert is_compact(poset, x)
            for y in poset.elements:
                assert way_below(poset, x, y) == poset.le(x, y)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, "way-below equals order and everything compact on 500 posets", elapsed, 10)


def test_criterion_2_two_point_poset():
    start = time.perf_counter()
    poset, basis = sierpinski()
    assert compacts(poset) == ("bot", "top")
    assert check_small_compact_basis(poset, basis)
    elapsed = time.perf_counter() - start
    report(2, "two-point poset: compacts exact and two-element basis valid", elapsed, 1)


def test_criterion_3_powerset():
    start = time.perf_counter()
    lattice, lists = powerset(3)
    assert len(compacts(lattice.poset)) == 8
    assert set(lists.basis.image_names()) == set(lattice.poset.elements)
    assert check_small_compact_basis(lattice.poset, lists.basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "powerset(3): 8 compacts, list basis surjective and valid", elapsed, 1)


def test_criterion_4_ideal_completion_equivalence():
    start = time.perf_counter()
    bases = generate_basis_corpus(1004, 100, 5)
    assert sum(1 for b in bases if b.is_reflexive()) == 50
    for basis in bases:
        completion = idl_poset(basis)
        for i_ideal in completion.ideals:
            for j_ideal in completion.ideals:
                assert idl_way_below(basis, i_ideal, j_ideal) == way_below(
                    completion.poset,
                    completion.name_of(i_ideal),
                    completion.name_of(j_ideal),
                )
        if basis.is_reflexive():
            assert idl_basis_check(basis)
    for poset in generate_corpus(1104, 100, 5):
        assert idl_iso_algebraic_check(poset, BasisMap.identity(poset))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, "ideal completion equivalences on 100 bases and 100 posets", elapsed, 60)


def test_criterion_5_step_functions():
    start = time.perf_counter()
    lattices = generate_lattice_corpus(1005, 100, 4)
    pairs = list(zip(lattices[::2], lattices[1::2]))
    assert len(pairs) == 50
    for dom, cod in pairs:
        ex = exponential(dom, cod)
        steps = [
            step_function(dom, cod, d, e).graph
            for d in dom.elements
            for e in cod.elements
        ]
        for f in ex.maps:
            join = tuple([cod.bottom] * dom.n)
            for g in steps:
                if all(cod.leq[g[i], f.graph[i]] for i in range(dom.n)):
                    join = pointwise_join(cod, join, g)
            assert join == f.graph
        basis = step_basis(dom, BasisMap.identity(dom), cod, BasisMap.identity(cod))
        assert check_small_compact_basis(ex.poset, basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, "step functions rebuild every map; step bases compact on 50 pairs", elapsed, 120)


def test_criterion_6_scott_tower():
    start = time.perf_counter()
    tower = scott_tower(2)
    assert [s.n for s in tower.stages] == [2, 3, 10]
    # independent chain-stage oracle: the first two stages are chains
    assert tower.stages[1].n == math.comb(2 + 2 - 1, 2)
    assert tower.stages[2].n == math.comb(3 + 3 - 1, 3)
    assert len(enumerate_monotone_maps(tower.stages[1], tower.stages[1])) == tower.stages[2].n
    for pair in tower.pairs:
        assert validate_ep_pair(pair)
    bilim = finite_bilimit(tower)
    assert bilim.poset.n == tower.top.n
    report_dict = dinfty_demo()
    assert report_dict["stage_sizes"] == [2, 3, 10]
    assert all(report_dict["laws"].values())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, "tower stages [2,3,10], all laws, bilimit compact basis", elapsed, 30)


def test_criterion_7_dyadics():
    start = time.perf_counter()
    rng = random.Random(1007)

    def rand_dyadic():
        return "".join(rng.choice("LR") for _ in range(rng.randint(0, 12))) + MIDDLE

    for _ in range(10_000):
        x, y = rand_dyadic(), rand_dyadic()
        qx, qy = to_rational(x), to_rational(y)
        assert dy_prec(x, y) == (qx < qy)
        assert sum([dy_prec(x, y), dy_eq(x, y), dy_prec(y, x)]) == 1
        assert not dy_prec(x, x)
        assert dy_prec(left(x), x) and dy_prec(x, right(x))
        if dy_prec(x, y):
            z = dy_interpolant(x, y)
            assert dy_prec(x, z) and dy_prec(z, y)
            assert qx < to_rational(z) < qy
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, "dyadic order matches exact rationals on 10000 pairs", elapsed, 5)


def test_criterion_8_approximates_iff_left_adjunct():
    start = time.perf_counter()
    posets = [p for p in generate_corpus(1001, 500, 7) if p.n <= 4]
    assert posets
    for poset in posets:
        for fam in all_directed_subset_families(poset):
            for x in poset.elements:
                assert approximates(poset, fam, x) == is_left_adjunct(poset, fam, x)
    elapsed = time.perf_counter() - start
    report(8, f"approximates iff left adjunct on {len(posets)} small posets", elapsed, 60)


def test_criterion_9_retract_transfer():
    start = time.perf_counter()
    pairs = generate_ep_corpus(1009, 50, 5)
    assert len(pairs) == 50
    for pair in pairs:
        big, small = pair.embed.target, pair.embed.source
        moved = transfer_basis_along_retract(
            pair.embed, pair.project, BasisMap.identity(big)
        )
        assert check_small_basis(small, moved)
        assert retract_way_below_transfer_check(pair.embed, pair.project)
    elapsed = time.perf_counter() - start
    report(9, "basis transfer and way-below transfer on 50 section/retraction pairs", elapsed, 60)
