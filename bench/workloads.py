"""The items of each workload: calls into dcpolab plus an independent check.

An item's ``run`` makes a short sequence of calls through the API namespace
(see ``spans.make_api``) and returns what they produced.  Its ``check`` runs
after the item's timer stops and compares that output against an oracle the
benchmark computes itself, with plain integers and numpy boolean matrices,
never with dcpolab's bitmask routines.  ``check`` raises
``Mismatch`` on disagreement.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from inputs import DYADIC_PROBE_DEPTHS, dyadic, hasse, monotone_graphs, order_matrix

STAGE3_MAPS = 120_549


class Mismatch(Exception):
    """An item's output disagreed with the benchmark's oracle."""


@dataclass
class Item:
    name: str
    run: Callable
    check: Callable
    fresh_dyadics: bool = False  # clear dcpolab's dy_prec cache before the item


def expect(condition, what):
    if not condition:
        raise Mismatch(what)


def _leq(poset) -> np.ndarray:
    return order_matrix(poset["elements"], poset["covers"])


def _write_poset(path, poset):
    covers = " ".join(f"{a}<{b}" for a, b in poset["covers"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"poset\nelements: {' '.join(poset['elements'])}\ncovers: {covers}\n")
    return path


# ---------------------------------------------------------------- corpus

def _queries(api, p, basis=None):
    """Way-below on all pairs, compacts, the compact-basis check and
    interpolation for every way-below pair, on an already built poset."""
    api.directed_table(p)
    pairs = [(x, y) for x in p.elements for y in p.elements if api.way_below(p, x, y)]
    ident = api.identity_basis(p)
    return {
        "elements": p.elements,
        "way_below": pairs,
        "compacts": api.compacts(p),
        "basis_ok": api.check_small_compact_basis(p, ident),
        "extra_basis_ok": basis is None or api.check_small_compact_basis(p, basis),
        "interpolants": [(x, y, api.interpolate_unary(p, ident, x, y)) for x, y in pairs],
    }


def _check_queries(out, le):
    """At finite scale way-below is the order and every element is compact."""
    els = out["elements"]
    expected = [(x, y) for x in els for y in els if le(x, y)]
    expect(out["way_below"] == expected, "way-below differs from the order")
    expect(tuple(out["compacts"]) == tuple(els), "some element is not compact")
    expect(out["basis_ok"] is True and out["extra_basis_ok"] is True, "compact basis rejected")
    for x, y, b in out["interpolants"]:
        expect(le(x, b) and le(b, y), f"interpolant {b} not between {x} and {y}")


def _matrix_le(poset):
    leq = _leq(poset)
    index = {x: i for i, x in enumerate(poset["elements"])}
    return lambda x, y: bool(leq[index[x], index[y]])


def _subset_le(x, y):
    return set(x.strip("{}").split(",")) - {""} <= set(y.strip("{}").split(",")) - {""}


def corpus_items(inputs, workdir):
    items = []
    for poset in inputs["posets"]:
        n = len(poset["elements"])

        def run(api, poset=poset):
            return _queries(api, api.closure_from_covers(poset["elements"], poset["covers"]))

        items.append(Item(f"poset n={n}", run, lambda out, poset=poset: _check_queries(out, _matrix_le(poset))))
    for n in inputs["powerset"]:

        def run(api, n=n):
            lattice, lists = api.powerset(n)
            return _queries(api, lattice.poset, lists.basis if n <= 3 else None)

        items.append(Item(f"powerset({n})", run, lambda out: _check_queries(out, _subset_le)))
    for n in inputs["lifting"]:

        def run(api, n=n):
            poset, basis = api.lifting(n)
            return _queries(api, poset, basis)

        items.append(Item(f"lifting({n})", run, lambda out: _check_queries(out, lambda x, y: x == y or x == "bot")))
    for k, poset in enumerate(inputs["adjunct_posets"]):
        items.append(_adjunct_item(poset, inputs["adjunct_seed"] + k))
    for k, poset in enumerate(inputs["cli_posets"]):
        path = _write_poset(os.path.join(workdir, f"corpus{k}.txt"), poset)
        items += _cli_poset_items(poset, path)
    return items


def _adjunct_item(poset, seed):
    """Left adjuncts against approximation, on seeded directed subsets."""
    els = poset["elements"]
    leq = _leq(poset)

    def run(api):
        p = api.closure_from_covers(els, poset["covers"])
        masks, _ = api.directed_table(p)
        chosen = sorted(random.Random(seed).sample(range(len(masks)), min(6, len(masks))))
        out = []
        for k in chosen:
            names = p.names_of(int(masks[k]))
            fam = api.directed_family(p, names)
            for x in els:
                out.append((names, x, api.is_left_adjunct(p, fam, x), api.approximates(p, names, x)))
        return out

    def check(out):
        expect(out, "no directed subsets sampled")
        index = {x: i for i, x in enumerate(els)}
        for names, x, adjunct, approx in out:
            idx = [index[v] for v in names]
            expect(all((leq[a] & leq[b])[idx].any() for a in idx for b in idx), f"{names} is not directed")
            tops = [v for v in idx if leq[idx, v].all()]
            expect(adjunct == approx == (tops == [index[x]]), f"adjunct/approximates disagree at {names}, {x}")

    return Item(f"adjunct n={len(els)}", run, check)


def _cli_poset_items(poset, path):
    le = _matrix_le(poset)
    els = poset["elements"]
    x, y = els[0], els[-1]
    return [
        Item("cli compacts", lambda api: api.cli(["compacts", path]),
             lambda out: expect(out == (0, " ".join(els) + "\n"), f"cli compacts gave {out}")),
        Item("cli basis-check", lambda api: api.cli(["basis-check", path]),
             lambda out: expect(out == (0, "small-basis: true\nsmall-compact-basis: true\n"), f"cli basis-check gave {out}")),
        Item("cli waybelow", lambda api: api.cli(["waybelow", path, x, y]),
             lambda out: expect(out == ((0, "true\n") if le(x, y) else (1, "false\n")), f"cli waybelow gave {out}")),
    ]


# ---------------------------------------------------------------- tower

def _pointwise(graphs, leq_e) -> np.ndarray:
    return leq_e[graphs[:, None, :], graphs[None, :, :]].all(axis=2)


def scott_stages():
    """Order matrices of tower stages 0..2 and the graphs of stage 2, computed
    by brute force over graph tuples (sorted, as dcpolab names them)."""
    leq = np.array([[True, True], [False, True]])
    stages = [leq]
    for _ in range(2):
        graphs = monotone_graphs(leq, leq)
        leq = _pointwise(graphs, leq)
        stages.append(leq)
    return stages


def _strictly_sorted(graphs) -> bool:
    diff = graphs[1:] - graphs[:-1]
    first = np.argmax(diff != 0, axis=1)
    return bool((diff[np.arange(len(diff)), first] > 0).all())


def _yardstick_item(stages):
    leq2 = stages[2]
    covers = np.array(hasse(list(range(len(leq2))), leq2))

    def run(api):
        tower = api.scott_tower(2)
        d2 = tower.stages[2]
        return [s.n for s in tower.stages], d2.leq.copy(), api.enumerate_monotone_maps(d2, d2)

    def check(out):
        sizes, d2_leq, maps = out
        expect(sizes == [2, 3, 10], f"stage sizes {sizes}")
        expect((d2_leq == leq2).all(), "stage 2 order differs from brute force")
        expect(len(maps) == STAGE3_MAPS, f"{len(maps)} maps at stage 3")
        graphs = np.array([m.graph for m in maps], dtype=np.int64)
        expect(_strictly_sorted(graphs), "stage-3 graphs are not sorted and distinct")
        expect(leq2[graphs[:, covers[:, 0]], graphs[:, covers[:, 1]]].all(), "a stage-3 graph is not monotone")

    return Item("stage-3 maps", run, check)


def _pair_item(pair):
    D, E = pair["D"], pair["E"]
    graphs = monotone_graphs(_leq(D), _leq(E))
    leq = _pointwise(graphs, _leq(E))

    def run(api):
        d = api.closure_from_covers(D["elements"], D["covers"])
        e = api.closure_from_covers(E["elements"], E["covers"])
        ex = api.exponential(d, e)
        basis = api.step_basis(d, api.identity_basis(d), e, api.identity_basis(e))
        names, top = ex.poset.elements, ex.poset.elements[-1]
        way = [(api.way_below(ex.poset, x, x), api.way_below(ex.poset, x, top), api.way_below(ex.poset, top, x))
               for x in names]
        return ex, basis, api.check_small_compact_basis(ex.poset, basis), way

    def check(out):
        ex, basis, ok, way = out
        expect(way == [(True, True, k == len(way) - 1) for k in range(len(way))], "way-below differs from the order")
        expect([m.graph for m in ex.maps] == [tuple(g) for g in graphs.tolist()], "monotone maps differ")
        expect((ex.poset.leq == leq).all(), "exponential order is not pointwise")
        expect(ok is True, "step basis rejected")
        expect(set(basis.image_names()) == set(ex.poset.elements), "step basis misses a map")

    return Item(f"exponential {pair['maps']} maps", run, check)


def _dinfty_item(stages):
    def run(api):
        tower = api.scott_tower(2)
        return tower, api.finite_bilimit(tower), api.dinfty_demo()

    def check(out):
        tower, bilim, report = out
        expect([s.n for s in tower.stages] == [2, 3, 10], "stage sizes")
        expect(all((s.leq == o).all() for s, o in zip(tower.stages, stages)), "stage orders")
        expect(bilim.poset.n == 10 and (bilim.poset.leq == stages[2]).all(), "bilimit differs from stage 2")
        expect(report["stage_sizes"] == [2, 3, 10] and report["bilimit_size"] == 10, "report sizes")
        expect(all(v is True for v in report["laws"].values()), f"laws {report['laws']}")

    return Item("dinfty", run, check)


def _retract_item(stages):
    sizes = [len(s["elements"]) for s in stages]
    # Component i of the bilimit tuple of a top element, by composing the
    # retractions downwards.
    expected = []
    for top in range(sizes[-1]):
        comps = [top]
        for small in reversed(stages[:-1]):
            comps.insert(0, small["retraction"][comps[0]])
        expected.append(tuple(stages[i]["elements"][c] for i, c in enumerate(comps)))

    def run(api):
        posets = [api.closure_from_covers(s["elements"], s["covers"]) for s in stages]
        pairs = []
        for k, s in enumerate(stages[:-1]):
            small, big = posets[k], posets[k + 1]
            pairs.append(api.EpPair(api.MonoMap(small, big, s["section"]), api.MonoMap(big, small, s["retraction"])))
        tower = api.Tower(tuple(posets), tuple(pairs))
        bilim = api.finite_bilimit(tower)
        basis = api.bilimit_basis(bilim, [api.identity_basis(p) for p in posets])
        moved = [
            api.transfer_basis_along_retract(pair.embed, pair.project, api.identity_basis(posets[k + 1]))
            for k, pair in enumerate(pairs)
        ]
        return bilim, basis, moved

    def check(out):
        bilim, basis, moved = out
        expect(list(bilim.tuples) == expected, "bilimit tuples differ from composed retractions")
        expect(len(basis.labels) == sum(sizes), "bilimit basis size")
        for k, m in enumerate(moved):
            expect(set(m.image_names()) == set(stages[k]["elements"]), "transferred basis misses an element")

    return Item(f"retract tower {sizes}", run, check)


def tower_items(inputs, workdir):
    stages = scott_stages()
    items = [_yardstick_item(stages), _dinfty_item(stages)]
    items += [_pair_item(pair) for pair in inputs["pairs"]]
    items += [_retract_item(tower) for tower in inputs["towers"]]
    expected_tower = "".join(
        line + "\n"
        for line in ["stage_sizes: 2 3 10", "basis_sizes: 2 3 10", "bilimit_size: 10", "bilimit_basis_size: 15"]
        + [f"law_{law}: pass" for law in ("ep_pairs", "embeddings_transfer_way_below", "bilimit_iso_top_stage",
                                          "stage_bases_compact", "bilimit_small_compact_basis")]
    )
    items.append(Item("cli tower", lambda api: api.cli(["tower", "--stages", "2"]),
                      lambda out: expect(out == (0, expected_tower), f"cli tower gave {out}")))
    pair = inputs["cli_pair"]
    d_file = _write_poset(os.path.join(workdir, "D.txt"), pair["D"])
    e_file = _write_poset(os.path.join(workdir, "E.txt"), pair["E"])

    def check_exp(out):
        code, text = out
        expect(code == 0 and "step-basis-compact: true\n" in text, "cli exp step basis")
        expect(sum(line.startswith("# f") for line in text.splitlines()) == pair["maps"], "cli exp map count")

    items.append(Item("cli exp", lambda api: api.cli(["exp", d_file, e_file, "--step-basis"]), check_exp))
    return items


# ---------------------------------------------------------------- completion

def dyadic_value(x: str) -> tuple:
    """(numerator, denominator) of a constructor string, with integers only."""
    num, den = 0, 1
    for c in reversed(x[:-1]):
        num, den = (num - den if c == "L" else num + den), den * 2
    return num, den


def dyadic_less(x, y) -> bool:
    (a, b), (c, d) = dyadic_value(x), dyadic_value(y)
    return a * d < c * b


def _basis_item(basis):
    els = basis["elements"]
    leq = _leq(basis)
    index = {x: i for i, x in enumerate(els)}

    def run(api):
        ab = api.abstract_basis(els, basis["pairs"])
        valid = api.validate_abstract_basis(ab)
        comp = api.idl_poset(ab)
        routes = [
            (api.idl_way_below(ab, i, j), api.way_below(comp.poset, comp.name_of(i), comp.name_of(j)))
            for i in comp.ideals
            for j in comp.ideals
        ]
        host = api.closure_from_covers(els, basis["covers"])
        med = api.mediating_map(comp, {b: b for b in els}, host)
        return valid, comp.ideals, routes, api.idl_basis_check(ab), med.graph

    expected_ideals = [frozenset(els[i] for i in range(len(els)) if m >> i & 1) for m in basis["ideals"]]

    def check(out):
        valid, ideals, routes, basis_ok, graph = out
        expect(valid == (True, None), f"validate gave {valid}")
        expect(list(ideals) == expected_ideals, "ideals differ from brute force")
        expect(all(a == b for a, b in routes), "ideal way-below routes disagree")
        expect(basis_ok is True, "principal ideals rejected as a basis")
        for ideal, image in zip(ideals, graph):
            idx = [index[m] for m in ideal]
            tops = [m for m in idx if leq[idx, m].all()]
            expect(tops == [image], f"mediating map sends {sorted(ideal)} to {els[image]}")

    kind = "reflexive" if basis["reflexive"] else "strict"
    return Item(f"idl {kind} n={len(els)}", run, check)


def _iso_item(poset):
    def run(api):
        p = api.closure_from_covers(poset["elements"], poset["covers"])
        basis = api.identity_basis(p)
        return api.idl_iso_algebraic_check(p, basis), api.idl_iso_continuous_check(p, basis)

    return Item(f"idl-iso n={len(poset['elements'])}", run,
                lambda out: expect(out == (True, True), f"idl-iso gave {out}"))


def _lattice_item(lattice, rng):
    els, masks = lattice["elements"], lattice["masks"]
    chosen = rng.sample(els, min(6, len(els)))

    def run(api):
        p = api.closure_from_covers(els, lattice["covers"])
        closed = api.close_basis_under_joins(p, api.identity_basis(p))
        fam = api.directify(p, {x: x for x in chosen})
        return closed, api.idl_supcomplete_check(p, closed), fam

    def check(out):
        closed, supcomplete, fam = out
        expect(supcomplete is True, "completion of the join-closed basis is not sup-complete")
        expect(set(closed.basis.image_names()) == set(els), "join closure misses an element")
        expect(len(fam.labels) == 1 << len(chosen), "directify label count")
        for label in fam.labels:
            join = 0
            for x in label:
                join |= masks[els.index(x)]
            expect(fam.value(label) == f"l{join}", f"join of {label}")

    return Item(f"lattice n={len(els)}", run, check)


def _deep_item(x, y):
    def run(api):
        lt, gt = api.dy_prec(x, y), api.dy_prec(y, x)
        lo, hi = (x, y) if lt else (y, x)
        mid = api.dy_interpolant(lo, hi) if lt or gt else None
        return lt, gt, mid, api.to_rational(x), None if mid is None else api.to_rational(mid)

    def check(out):
        lt, gt, mid, qx, qmid = out
        expect(lt == dyadic_less(x, y) and gt == dyadic_less(y, x), "dyadic order differs from numerators")
        expect((qx.numerator, qx.denominator) == _reduced(dyadic_value(x)), "to_rational differs")
        if lt or gt:
            lo, hi = (x, y) if lt else (y, x)
            expect(dyadic_less(lo, mid) and dyadic_less(mid, hi), "interpolant not strictly between")
            expect((qmid.numerator, qmid.denominator) == _reduced(dyadic_value(mid)), "to_rational of interpolant")
        else:
            expect(x == y, "distinct dyadics reported equal")

    return Item(f"dyadic depth {min(len(x), len(y))}", run, check, fresh_dyadics=True)


def _reduced(value):
    num, den = value
    while num % 2 == 0 and den > 1:
        num, den = num // 2, den // 2
    return num, den


def _stream_item(x, fuel):
    below = "L" + x

    def run(api):
        down = api.principal_stream(x)
        return (
            api.stream_member(down, below, fuel).value,
            api.stream_member(down, x, fuel).value,
            api.stream_way_below(api.principal_stream(below), down, fuel).value,
            api.no_compact_ideals_evidence(x, fuel),
        )

    # left(x) lies under the first generator of the stream of x; x itself is
    # in no generator's lower set; the stream of left(x) is way below that of
    # x; and no principal ideal is compact.
    return Item(f"stream depth {len(x)}", run,
                lambda out: expect(out == ("yes", "no-within-fuel", "yes", True), f"stream answers {out}"),
                fresh_dyadics=True)


def completion_items(inputs, workdir):
    items = [_basis_item(b) for b in inputs["bases"]]
    items += [_iso_item(p) for p in inputs["iso_posets"]]
    rng = random.Random(inputs["directify_seed"])
    items += [_lattice_item(lat, rng) for lat in inputs["lattices"]]
    for depth in inputs["validate_depths"]:
        items.append(Item(f"dyadic validate {depth}", lambda api, d=depth: api.dyadic_validate(d),
                          lambda out: expect(out is True, "dyadic basis axioms failed"), fresh_dyadics=True))
    items += [_deep_item(x, y) for x, y in inputs["deep_pairs"]]
    items += [_stream_item(x, inputs["fuel"]) for x in inputs["streams"]]

    basis = inputs["cli_basis"]
    basis_file = os.path.join(workdir, "basis.txt")
    with open(basis_file, "w", encoding="utf-8") as fh:
        rel = " ".join(f"{a}<{b}" for a, b in basis["pairs"])
        fh.write(f"basis\nelements: {' '.join(basis['elements'])}\nrel: {rel}\n")

    def check_idl(out):
        code, text = out
        expect(code == 0 and text.startswith("poset\nelements: "), f"cli idl gave {out}")
        expect(len(text.splitlines()[1].split()) - 1 == len(basis["ideals"]), "cli idl ideal count")

    items.append(Item("cli idl", lambda api: api.cli(["idl", basis_file]), check_idl))
    poset_file = _write_poset(os.path.join(workdir, "iso.txt"), inputs["cli_poset"])
    items.append(Item("cli idl-iso", lambda api: api.cli(["idl-iso", poset_file]),
                      lambda out: expect(out == (0, "idl-iso-continuous: true\nidl-iso-algebraic: true\n"),
                                         f"cli idl-iso gave {out}")))
    x, y = inputs["cli_dyadics"]
    px, py = ".".join(x), ".".join(y)

    def check_cmp(out):
        word = "lt" if dyadic_less(x, y) else "gt" if dyadic_less(y, x) else "eq"
        expect(out == (0, word + "\n"), f"cli dyadic cmp gave {out}")

    def check_interp(out):
        code, text = out
        mid = text.strip().replace(".", "")
        expect(code == 0 and dyadic_less(x, mid) and dyadic_less(mid, y), f"cli dyadic interp gave {out}")

    items.append(Item("cli dyadic cmp", lambda api: api.cli(["dyadic", "cmp", px, py]), check_cmp, fresh_dyadics=True))
    items.append(Item("cli dyadic interp", lambda api: api.cli(["dyadic", "interp", px, py]), check_interp,
                      fresh_dyadics=True))
    return items


def deep_dyadic_probe(dyadics, seed) -> dict:
    """The recursive dyadic order across depths 0..1200, outside any timer.

    Returns the depths whose comparison or interpolant raised RecursionError
    (a known defect of the recursive routines) and any depth that answered
    wrongly.
    """
    rng = random.Random(f"probe:{seed}")
    failed, wrong = [], []
    for depth in DYADIC_PROBE_DEPTHS:
        prefix = dyadic(rng, depth)[:-1]
        x, y = prefix + "LM", prefix + "RM"
        clear = getattr(dyadics.dy_prec, "cache_clear", None)
        if clear:
            clear()
        try:
            ok = dyadics.dy_prec(x, y) and not dyadics.dy_prec(y, x)
            mid = dyadics.dy_interpolant(x, y)
        except RecursionError:
            failed.append(depth)
            continue
        if not (ok and dyadic_less(x, mid) and dyadic_less(mid, y)):
            wrong.append(depth)
    return {"depths": list(DYADIC_PROBE_DEPTHS), "recursion_failed": failed, "wrong": wrong}


BUILDERS = {"corpus": corpus_items, "tower": tower_items, "completion": completion_items}


def build_items(workload, inputs, workdir):
    return BUILDERS[workload](inputs, workdir)
