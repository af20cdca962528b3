from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import looked_up_projection, looped_push_up, product_scan_bilimit, retract_chains
from dcpolab.bilimit import (
    Tower,
    alpha_infinity,
    bilimit_basis,
    dinfty_demo,
    embedding_preserves_way_below_check,
    finite_bilimit,
    scott_tower,
)
from dcpolab.canonex import sierpinski
from dcpolab.cli import generate_ep_corpus
from dcpolab.errors import IncompatibleTower, NotApproximating, StageTooLarge
from dcpolab.expo import exponential, step_basis
from dcpolab.finposet import (
    EpPair,
    FinPoset,
    MonoMap,
    closure_from_covers,
    mono_compose,
    validate_ep_pair,
)
from dcpolab.indcomp import DirectedFamily
from dcpolab.waybelow import (
    BasisMap,
    approximates,
    check_small_basis,
    check_small_compact_basis,
    is_compact,
    way_below_reduced,
)


@pytest.fixture(scope="module")
def tower2():
    return scott_tower(2)


@pytest.fixture(scope="module")
def bilim2(tower2):
    return finite_bilimit(tower2)


def stage_bases(tower, n):
    _, base_basis = sierpinski()
    bases = [base_basis]
    for k in range(n):
        below = tower.stages[k]
        bases.append(step_basis(below, bases[k], below, bases[k]))
    return bases


def test_stage_sizes(tower2):
    assert [s.n for s in tower2.stages] == [2, 3, 10]


def test_all_pairs_validate(tower2):
    for pair in tower2.pairs:
        assert validate_ep_pair(pair)


def test_pair_composites_functorial(tower2):
    e02 = tower2.embed_between(0, 2)
    via = [
        tower2.pairs[1].embed.apply(tower2.pairs[0].embed.apply(x))
        for x in tower2.stages[0].elements
    ]
    assert [e02.apply(x) for x in tower2.stages[0].elements] == via
    p20 = tower2.project_between(2, 0)
    for x in tower2.stages[0].elements:
        assert p20.apply(e02.apply(x)) == x


def test_tower_pairs_match_composed_conjugation(tower2):
    # the reference recursion, one composition per map: base pair, then conjugation
    base = tower2.stages[0]
    ex1, ex2 = exponential(base, base), exponential(tower2.stages[1], tower2.stages[1])
    constants = [ex1.index_of((x,) * base.n) for x in range(base.n)]
    assert tower2.pairs[0].embed.graph == tuple(constants)
    assert tower2.pairs[0].project.graph == tuple(m.graph[base.bottom] for m in ex1.maps)
    e, p = tower2.pairs[0].embed, tower2.pairs[0].project
    up = [ex2.index_of(mono_compose(e, mono_compose(f, p)).graph) for f in ex1.maps]
    down = [ex1.index_of(mono_compose(p, mono_compose(g, e)).graph) for g in ex2.maps]
    assert tower2.pairs[1].embed.graph == tuple(up)
    assert tower2.pairs[1].project.graph == tuple(down)


def test_composite_section_and_deflation_laws(tower2):
    for i in range(3):
        for j in range(i, 3):
            up = tower2.embed_between(i, j)
            down = tower2.project_between(j, i)
            low, high = tower2.stages[i], tower2.stages[j]
            for x in low.elements:
                assert down.apply(up.apply(x)) == x
            for y in high.elements:
                assert high.le(up.apply(down.apply(y)), y)


def test_stage_three_guard():
    with pytest.raises(StageTooLarge):
        scott_tower(3)


def test_single_stage_bilimit_is_base():
    tower = scott_tower(0)
    bilim = finite_bilimit(tower)
    assert bilim.poset.n == 2
    for x in tower.stages[0].elements:
        assert bilim.iso_from_top.apply(x) in bilim.poset.elements


def test_bilimit_of_tower1_is_stage1():
    tower = scott_tower(1)
    bilim = finite_bilimit(tower)
    assert bilim.poset.n == tower.top.n == 3


def test_bilimit_of_tower2_is_stage2(tower2, bilim2):
    assert bilim2.poset.n == tower2.top.n == 10
    top = tower2.top
    for i in range(top.n):
        for j in range(top.n):
            assert bool(top.leq[i, j]) == bilim2.poset.le(
                bilim2.iso_from_top.apply(top.elements[i]),
                bilim2.iso_from_top.apply(top.elements[j]),
            )


def test_bilimit_tuples_are_projections(tower2, bilim2):
    for name, tup in zip(bilim2.poset.elements, bilim2.tuples):
        for i in range(len(tower2.stages)):
            assert bilim2.component(name, i) == tup[i]
            assert bilim2.project_infinity(i).apply(name) == tup[i]


def test_embed_infinity_sections(tower2, bilim2):
    for i in range(len(tower2.stages)):
        eps = bilim2.embed_infinity(i)
        proj = bilim2.project_infinity(i)
        for x in tower2.stages[i].elements:
            assert proj.apply(eps.apply(x)) == x


def test_alpha_infinity_down_families(tower2, bilim2):
    families = []
    for sigma in bilim2.poset.elements:
        families = [
            DirectedFamily.from_names(
                tower2.stages[i],
                tuple(
                    y
                    for y in tower2.stages[i].elements
                    if tower2.stages[i].le(y, bilim2.component(sigma, i))
                ),
            )
            for i in range(len(tower2.stages))
        ]
        fam = alpha_infinity(bilim2, families, sigma)
        assert approximates(bilim2.poset, fam, sigma)
        # all stage values are compact here, so the combined values must be
        assert all(is_compact(bilim2.poset, v) for v in fam.image_names())


def test_alpha_infinity_rejects_non_approximating(tower2, bilim2):
    sigma = bilim2.poset.elements[-1]
    bottoms = [
        DirectedFamily.from_names(s, (s.elements[s.bottom],)) for s in tower2.stages
    ]
    top_stage = tower2.top
    if bilim2.component(sigma, 2) != top_stage.elements[top_stage.bottom]:
        with pytest.raises(NotApproximating):
            alpha_infinity(bilim2, bottoms, sigma)


def test_bilimit_basis_single_stage():
    tower = scott_tower(0)
    bilim = finite_bilimit(tower)
    _, base_basis = sierpinski()
    binf = bilimit_basis(bilim, [base_basis])
    assert len(binf.labels) == len(base_basis.labels)
    assert check_small_compact_basis(bilim.poset, binf)


def test_bilimit_basis_tower2(tower2, bilim2):
    bases = stage_bases(tower2, 2)
    binf = bilimit_basis(bilim2, bases)
    assert check_small_basis(bilim2.poset, binf)
    assert check_small_compact_basis(bilim2.poset, binf)


def test_bilimit_basis_image_is_union_of_stage_images(tower2, bilim2):
    bases = stage_bases(tower2, 2)
    binf = bilimit_basis(bilim2, bases)
    expected = set()
    for i, beta in enumerate(bases):
        eps = bilim2.embed_infinity(i)
        for b in beta.labels:
            expected.add(eps.apply(beta.value(b)))
    assert set(binf.image_names()) == expected


def test_embeddings_preserve_and_reflect_way_below(tower2):
    for i in range(3):
        for j in range(i, 3):
            assert embedding_preserves_way_below_check(tower2, i, j)


def test_embedding_way_below_check_matches_per_pair_scan():
    for pair in generate_ep_corpus(21, 15, 5):
        tower = Tower((pair.embed.source, pair.embed.target), (pair,))
        low, high, eps = tower.stages[0], tower.stages[1], pair.embed
        scan = all(
            way_below_reduced(low, x, y) == way_below_reduced(high, eps.apply(x), eps.apply(y))
            for x in low.elements
            for y in low.elements
        )
        assert embedding_preserves_way_below_check(tower, 0, 1) is scan


def test_dinfty_demo_report():
    report = dinfty_demo()
    assert report["stage_sizes"] == [2, 3, 10]
    assert report["basis_sizes"] == [2, 3, 10]
    assert report["bilimit_size"] == 10
    assert all(report["laws"].values())


def test_dinfty_demo_runs_one_search_per_stage(searches):
    # the step bases read the exponentials scott_tower built
    report = dinfty_demo(2)
    assert searches == [(2, 2), (3, 3)]
    assert all(report["laws"].values())


def test_tower_with_a_failing_pair_is_refused(tower2):
    # dinfty_demo's ep_pairs law is the verdict of this constructor
    low, high = tower2.stages[1], tower2.stages[2]
    # the constant map at bottom is monotone, but it undoes no embedding
    bottom = MonoMap(high, low, [low.bottom] * high.n)
    broken = EpPair(embed=tower2.pairs[1].embed, project=bottom)
    assert not validate_ep_pair(broken)
    with pytest.raises(IncompatibleTower, match="pair 1 fails"):
        Tower(tower2.stages, (tower2.pairs[0], broken))


def down_families(bilim, sigma):
    """Per stage, the down-set of sigma's component: it approximates it."""
    return [
        DirectedFamily.from_names(
            s, tuple(y for y in s.elements if s.le(y, bilim.component(sigma, i)))
        )
        for i, s in enumerate(bilim.tower.stages)
    ]


# scott_tower(0) is a one-stage tower; the last tower has one empty stage
ORACLE_TOWERS = (
    retract_chains(13, 40)
    + [scott_tower(n) for n in range(3)]
    + [Tower((FinPoset((), np.zeros((0, 0), bool)),), ())]
)


@pytest.mark.parametrize(
    "tower", ORACLE_TOWERS, ids=lambda t: "-".join(str(s.n) for s in t.stages)
)
def test_bilimit_matches_the_product_scan(tower):
    bilim, oracle = finite_bilimit(tower), product_scan_bilimit(tower)
    assert bilim.tuples == oracle.tuples
    assert bilim.poset.elements == oracle.poset.elements
    assert (bilim.poset.leq == oracle.poset.leq).all()
    assert bilim.iso_from_top.graph == oracle.iso_from_top.graph
    for i in range(len(tower.stages)):
        assert bilim.project_infinity(i).graph == looked_up_projection(oracle, i).graph
        assert bilim.embed_infinity(i).graph == oracle.embed_infinity(i).graph
    bases = [BasisMap.identity(s) for s in tower.stages]
    binf = bilimit_basis(bilim, bases)
    assert (binf.labels, binf.into) == looped_push_up(oracle, bases)
    for sigma in bilim.poset.elements:
        families = down_families(bilim, sigma)
        fam = alpha_infinity(bilim, families, sigma)
        assert (fam.labels, fam.mapping) == looped_push_up(oracle, families)


def chain(m):
    names = [f"c{j}" for j in range(m)]
    return closure_from_covers(names, list(zip(names, names[1:])))


def test_chain_tower_bilimit_grows_stage_by_stage():
    # The stage product 9 * 10 * ... * 16 is about 5.2e8 tuples, too many to
    # scan; growing the tuples keeps one partial tuple per stage element.
    stages = [chain(m) for m in range(9, 17)]
    pairs = [
        EpPair(
            embed=MonoMap(low, high, range(low.n)),
            project=MonoMap(high, low, [min(j, low.n - 1) for j in range(high.n)]),
        )
        for low, high in zip(stages, stages[1:])
    ]
    tower = Tower(tuple(stages), tuple(pairs))
    start = time.perf_counter()
    bilim = finite_bilimit(tower)
    elapsed = time.perf_counter() - start
    assert bilim.tuples == tuple(
        tuple(f"c{min(j, s.n - 1)}" for s in stages) for j in range(16)
    )
    assert (bilim.poset.leq == tower.top.leq).all()
    assert elapsed < 1.0
