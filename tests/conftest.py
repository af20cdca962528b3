"""Shared corpora and independent oracles for the test suite.

The oracles here deliberately avoid the package's bitmask/numpy machinery:
they use only the public ``le`` predicate and plain itertools, so agreement
between an oracle and a production routine is a genuine two-route check.
The exceptions are the loop versions of replaced routines
(``frontier_join_closure``, ``fold_directify``, ``nested_supcomplete_check``,
``product_scan_bilimit``, ``looked_up_projection``, ``looped_push_up``,
``product_continuity``, the ``loop_*`` section-law checks, the ``loop_*`` mask
routines, the dyadic ``fold_*`` routines and ``loop_dyadic_validate``): they
read the same tables and maps as the vectorised code, and pin its outputs to
theirs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from dcpolab import expo, idealcomp
from dcpolab.bilimit import Bilimit, Tower
from dcpolab.cli import generate_corpus
from dcpolab.dyadics import dy_interpolant, left
from dcpolab.errors import IncompatibleTower, InvalidPoset, NotDirected, ShapeMismatch
from dcpolab.finposet import (
    EpPair,
    FinPoset,
    MonoMap,
    _bits,
    bool_product,
    closure_from_covers,
    componentwise_leq,
    is_order_isomorphism,
    is_directed,
    is_scott_continuous,
    subposet,
)
from dcpolab.idealcomp import AbstractBasis, basis_from_order, idl_poset


def naive_directed_subsets(poset):
    """Every directed subset, found by definition-chasing over combinations."""
    out = []
    for r in range(1, poset.n + 1):
        for combo in itertools.combinations(poset.elements, r):
            if all(
                any(poset.le(a, u) and poset.le(b, u) for u in combo)
                for a in combo
                for b in combo
            ):
                out.append(combo)
    return out


def lub_oracle(poset, names):
    """Least common upper bound via intersection of up-sets, or None."""
    ubs = [u for u in poset.elements if all(poset.le(x, u) for x in names)]
    for u in ubs:
        if all(poset.le(u, v) for v in ubs):
            return u
    return None


def naive_directed_sups(poset):
    """Each naive directed subset paired with its least upper bound."""
    return [(sub, lub_oracle(poset, sub)) for sub in naive_directed_subsets(poset)]


def naive_way_below(poset, x, y, directed=None):
    """The way-below definition, quantified with the naive subset enumerator.

    ``directed`` may pass ``naive_directed_sups(poset)``, computed once for
    many pairs.
    """
    for sub, sup in naive_directed_sups(poset) if directed is None else directed:
        if sup is not None and poset.le(y, sup):
            if not any(poset.le(x, s) for s in sub):
                return False
    return True


def loop_exceeds(poset, low, high):
    """Every member of the low family lies below some member of the high one,
    label by label with ``le``."""
    return all(any(poset.le(low.value(i), high.value(j)) for j in high.labels) for i in low.labels)


def naive_is_ideal(basis, subset):
    """Inhabited, down-closed, and every two members (equal ones too) lie
    under a common member, checked per subset with ``prec_holds``."""
    subset = frozenset(subset)
    return (
        bool(subset)
        and all(a in subset for b in subset for a in basis.carrier if basis.prec_holds(a, b))
        and all(
            any(basis.prec_holds(b1, c) and basis.prec_holds(b2, c) for c in subset)
            for b1 in subset
            for b2 in subset
        )
    )


def naive_ideals(basis):
    """Every ideal, in ascending bitmask order of carrier positions."""
    subsets = (
        frozenset(c for i, c in enumerate(basis.carrier) if mask >> i & 1)
        for mask in range(1, 1 << basis.n)
    )
    return [s for s in subsets if naive_is_ideal(basis, s)]


def naive_validate_abstract_basis(basis):
    """The abstract-basis axioms as nested loops, with the first counterexample
    of each in loop order: transitivity (a, b, c), nullary interpolation (a),
    binary interpolation (b, a1, a2), reported as in ``validate_abstract_basis``."""
    els, le = basis.carrier, basis.prec_holds
    for a, b, c in itertools.product(els, repeat=3):
        if le(a, b) and le(b, c) and not le(a, c):
            return False, ("transitivity", a, b, c)
    for a in els:
        if not any(le(x, a) for x in els):
            return False, ("nullary-interpolation", a)
    for b, a1, a2 in itertools.product(els, repeat=3):
        if le(a1, b) and le(a2, b) and not any(le(a1, c) and le(a2, c) and le(c, b) for c in els):
            return False, ("binary-interpolation", a1, a2, b)
    return True, None


def loop_dyadic_validate(basis, max_depth):
    """The triple loop that ``DyadicBasis.validate`` replaced, reading the
    basis's own ``prec``: transitivity (x, y, z), nullary interpolation (x),
    binary interpolation (b, a1, a2)."""
    elems, prec = basis.enumerate(max_depth), basis.prec
    for x, y, z in itertools.product(elems, repeat=3):
        if prec(x, y) and prec(y, z) and not prec(x, z):
            return False
    for x in elems:
        if not prec(basis.nullary_witness(x), x):
            return False
    for b, a1, a2 in itertools.product(elems, repeat=3):
        if prec(a1, b) and prec(a2, b):
            w = basis.binary_witness(a1, a2, b)
            if not (prec(a1, w) and prec(a2, w) and prec(w, b)):
                return False
    return True


def fold_to_rational(x):
    """The ``Fraction`` fold that ``dyadics.to_rational`` replaced."""
    q = Fraction(0)
    for c in reversed(x[:-1]):
        q = (q - 1) / 2 if c == "L" else (q + 1) / 2
    return q


def fold_principal_chain(x, n):
    """The n-th generator of ``principal_stream(x)``, interpolated from scratch."""
    g = dy_interpolant(left(x), x)
    for _ in range(n):
        g = dy_interpolant(g, x)
    return g


def pointwise_join(target, g1, g2):
    """The pointwise join of two graphs into ``target``, read from its
    ``lub_table``."""
    lub = target.lub_table
    return tuple(int(lub[a, b]) for a, b in zip(g1, g2))


def frontier_join_closure(bottom, generators, join, le):
    """The frontier join closure that ``expo._join_closure`` replaced, with
    the join and the order passed in as callbacks.

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


def fold_directify(poset, fam):
    """The labels and mapping of ``directify``, folding the join of every
    subset bit by bit from the bottom; no ``NoJoins`` or size guard."""
    first = {}
    for label, value in fam.items():
        first.setdefault(value, label)
    deduped = [(label, value) for value, label in first.items()]
    labels = []
    mapping = {}
    for mask in range(1 << len(deduped)):
        bits = [i for i in range(len(deduped)) if mask >> i & 1]
        subset = tuple(deduped[i][0] for i in bits)
        j = poset.bottom
        for i in bits:
            j = int(poset.lub_table[j, poset.index(deduped[i][1])])
        labels.append(subset)
        mapping[subset] = poset.elements[j]
    return tuple(labels), mapping


def nested_supcomplete_check(P, closed):
    """``idl_supcomplete_check`` by name: each K(I, J) from ``P.le`` and the
    label-level join, in four nested loops."""
    beta = closed.basis
    completion = idl_poset(basis_from_order(P, beta))
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


def product_scan_bilimit(tower: Tower) -> Bilimit:
    """Materialise the compatible tuples and verify the top-stage isomorphism."""
    stages = tower.stages
    k = len(stages)
    proj = {(j, i): tower.project_between(j, i).graph for i in range(k) for j in range(i, k)}
    rows = [tuple(proj[k - 1, i][x] for i in range(k)) for x in range(tower.top.n)]
    expected = set(rows)

    def names_of(row):
        return tuple(stages[i].elements[x] for i, x in enumerate(row))

    for combo in product(*(range(s.n) for s in stages)):
        compatible = all(proj[j, i][combo[j]] == combo[i] for i in range(k) for j in range(i, k))
        if compatible != (combo in expected):
            raise IncompatibleTower(
                f"compatible tuples are not exactly the top stage: {names_of(combo)}"
            )
    tuples = tuple(names_of(row) for row in rows)
    poset = FinPoset(tuple(";".join(t) for t in tuples), componentwise_leq(stages, rows))
    iso = MonoMap(tower.top, poset, range(tower.top.n), check=False)
    if not is_order_isomorphism(iso):
        raise IncompatibleTower("tuple order disagrees with the top stage")
    return Bilimit(tower, poset, tuples, iso)


def looked_up_projection(bilim, i):
    """``Bilimit.project_infinity`` by name: entry i of every tuple."""
    return MonoMap(
        bilim.poset,
        bilim.tower.stages[i],
        [bilim.tower.stages[i].index(t[i]) for t in bilim.tuples],
    )


def looped_push_up(bilim, families):
    """The labels and values that ``alpha_infinity`` and ``bilimit_basis``
    put on the bilimit, one stage label at a time."""
    labels = []
    mapping = {}
    for i, fam in enumerate(families):
        eps = bilim.embed_infinity(i)
        for j in fam.labels:
            labels.append((i, j))
            mapping[(i, j)] = eps.apply(fam.value(j))
    return tuple(labels), mapping


def _greatest_below(poset, members, x):
    """The greatest of the member indices below index x, or None."""
    below = [m for m in members if poset.leq[m, x]]
    return next((g for g in below if all(poset.leq[m, g] for m in below)), None)


def _deflation_pair(small, big):
    """The inclusion of a sub-poset and the idempotent deflation onto it,
    which sends each element to the greatest sub-poset member below it."""
    members = [big.index(x) for x in small.elements]
    section = MonoMap(small, big, members)
    down = [members.index(_greatest_below(big, members, x)) for x in range(big.n)]
    return EpPair(embed=section, project=MonoMap(big, small, down))


def retract_chains(seed, count):
    """Reproducible towers of 2 to 4 stages on at most eight elements.

    Each stage is the image of an idempotent deflation of the next, split by
    the inclusion, as ``generate_ep_corpus`` splits one pair.  The image is a
    random proper subset under which every element has a greatest member
    below it.
    """
    rng = random.Random(seed)
    chains = []
    for top in generate_corpus(seed, 4 * count, 8):
        if len(chains) == count:
            break
        stages = [top]
        for _ in range(rng.randint(1, 3)):
            big = stages[0]
            images = [
                members
                for r in range(1, big.n)
                for members in itertools.combinations(range(big.n), r)
                if all(_greatest_below(big, members, x) is not None for x in range(big.n))
            ]
            if not images:
                break
            stages.insert(0, subposet(big, [big.elements[i] for i in rng.choice(images)]))
        if len(stages) > 1:
            pairs = tuple(_deflation_pair(s, b) for s, b in zip(stages, stages[1:]))
            chains.append(Tower(tuple(stages), pairs))
    return chains


def one_entry_changed(pair):
    """The pair, then each copy of it with one projection entry changed; the
    changed projections are not checked for monotonicity."""
    yield pair
    e, p = pair.embed, pair.project
    for j, old in enumerate(p.graph):
        for v in range(p.target.n):
            if v != old:
                graph = p.graph[:j] + (v,) + p.graph[j + 1 :]
                yield EpPair(embed=e, project=MonoMap(p.source, p.target, graph, check=False))


def product_continuity(source, target, graph):
    """Scott continuity with the image supremum recomputed from scratch: two
    counting products over every directed subset.  u bounds the image when no
    member maps outside the down-set of u, and a bound is least when no bound
    lies outside its up-set."""
    g = np.asarray(graph, dtype=np.intp)
    if (source.leq & ~target.leq[np.ix_(g, g)]).any():
        return False
    dmasks, sups = source.directed_table
    members = (dmasks[:, None] >> np.arange(source.n)) & 1
    not_le = ~target.leq
    ubs = ~bool_product(members, not_le[g])
    least = ubs & ~bool_product(ubs, not_le.T)
    return bool(least[np.arange(len(sups)), g[sups]].all())


def loop_section(section, retraction):
    """Retraction after section is the identity, one source element at a time."""
    return all(retraction.graph[section.graph[i]] == i for i in range(section.source.n))


def loop_retract_failure(section, retraction):
    """``retract_failure`` with the section law as a loop over the source."""
    if section.source != retraction.target or section.target != retraction.source:
        return "endpoints"
    if any(retraction.graph[section.graph[i]] != i for i in range(section.source.n)):
        return "section"
    if not (is_scott_continuous(section) and is_scott_continuous(retraction)):
        return "continuity"
    return None


def loop_validate_ep_pair(pair):
    """``validate_ep_pair`` with the deflation law as a loop over the big side."""
    e, p = pair.embed, pair.project
    failure = loop_retract_failure(e, p)
    if failure == "endpoints":
        raise ShapeMismatch("embed/project endpoints do not align")
    if failure is not None:
        return False
    up = e.target
    return all(up.leq[e.graph[p.graph[j]], j] for j in range(up.n))


def loop_masks(poset):
    """The up-set and down-set bitmasks of every element, one bit at a time,
    as ``FinPoset`` once stored them eagerly."""
    n = poset.n
    above = [sum(1 << j for j in range(n) if poset.leq[i, j]) for i in range(n)]
    below = [sum(1 << j for j in range(n) if poset.leq[j, i]) for i in range(n)]
    return above, below


def loop_least_in(above, mask):
    """Index of the least member of a subset mask, or None.

    Applied to a mask of common upper bounds this is the least upper bound.
    """
    for u in _bits(mask):
        if mask & ~above[u] == 0:
            return u
    return None


def loop_lub_table(poset):
    """n-by-n table of least-upper-bound indices, -1 where none exists."""
    above, _ = loop_masks(poset)
    n = poset.n
    table = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            lub = loop_least_in(above, above[i] & above[j])
            if lub is not None:
                table[i, j] = lub
    return table


def loop_bottom(poset):
    """Index of the least element, or None."""
    above, below = loop_masks(poset)
    for i in range(poset.n):
        if below[i] == 1 << i and above[i] == poset.full_mask():
            return i
    return None


def loop_directed_sup(poset, subset):
    """Greatest member of a directed subset; equals its least upper bound."""
    mask = poset.mask_of(subset)
    if not is_directed(poset, mask):
        raise NotDirected(f"{poset.names_of(mask)} is not directed")
    _, below = loop_masks(poset)
    outside = poset.full_mask()
    for g in _bits(mask):
        if mask & (outside ^ below[g]) == 0:
            return poset.elements[g]
    raise InvalidPoset("directed subset without greatest element")


def loop_idl_iso_continuous_check(poset, beta):
    """``idl_iso_continuous_check`` with both section laws as loops; it reads
    ``idealcomp.idl_ep_pair`` at call time, so a test may replace that."""
    pair, completion = idealcomp.idl_ep_pair(poset, beta, use_way_below=True)
    s, r = pair.embed, pair.project
    return (
        is_order_isomorphism(s)
        and all(r.graph[s.graph[i]] == i for i in range(poset.n))
        and all(s.graph[r.graph[j]] == j for j in range(completion.poset.n))
    )


@st.composite
def relations(draw):
    """Random relations on at most eight labels: reflexive, strict,
    arbitrary, or transitive (a closure with random self-loops), the last
    either as drawn or grounded (nullary interpolation forced), so that every
    axiom of an abstract basis is hit both ways."""
    n = draw(st.integers(0, 8))
    odds = draw(st.integers(2, 5))  # each pair related with chance 1/odds
    draws = draw(st.lists(st.integers(0, odds - 1), min_size=n * n, max_size=n * n))
    rel = np.array(draws, dtype=np.int64).reshape(n, n) == 0
    kind = draw(st.sampled_from(["reflexive", "strict", "arbitrary", "transitive", "grounded"]))
    if kind == "reflexive":
        rel |= np.eye(n, dtype=bool)
    elif kind == "strict":
        rel &= ~np.eye(n, dtype=bool)
    elif kind in ("transitive", "grounded"):
        loops = rel.diagonal().copy()
        rel &= ~np.eye(n, dtype=bool)
        for _ in range(n):
            rel = rel | (rel @ rel)
        rel[np.diag_indices(n)] |= loops
        if kind == "grounded":  # a self-loop wherever nothing lies below
            rel[np.diag_indices(n)] |= ~rel.any(axis=0)
    return AbstractBasis(tuple(f"b{i}" for i in range(n)), rel)


@st.composite
def small_posets(draw):
    """Random posets, chains and antichains of at most nine elements.

    The element order is shuffled, so the canonical order need not be a
    linear extension of the poset.
    """
    n = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["random", "chain", "antichain"]))
    if shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "antichain":
        edges = []
    else:
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, pick in zip(pairs, picks) if pick]
    names = [f"e{i}" for i in range(n)]
    order = draw(st.permutations(names))
    return closure_from_covers(order, [(names[i], names[j]) for i, j in edges])


@pytest.fixture(scope="session")
def two_chain():
    return closure_from_covers(("bot", "top"), [("bot", "top")])


@pytest.fixture(scope="session")
def diamond():
    return closure_from_covers(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


@pytest.fixture(scope="session")
def small_corpus():
    """Forty posets of size at most 5 for exhaustive-by-subset checks."""
    return generate_corpus(11, 40, 5)


@pytest.fixture(scope="session")
def medium_corpus():
    """A hundred posets of size at most 7."""
    return generate_corpus(23, 100, 7)


@pytest.fixture
def searches(monkeypatch):
    """The sizes (source, target) of each monotone-map search ``expo`` runs."""
    calls = []
    search = expo.monotone_graphs

    def counted(D, E, *args):
        calls.append((D.n, E.n))
        return search(D, E, *args)

    monkeypatch.setattr(expo, "monotone_graphs", counted)
    return calls
