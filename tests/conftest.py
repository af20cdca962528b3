"""Shared corpora and independent oracles for the test suite.

The oracles here deliberately avoid the package's bitmask/numpy machinery:
they use only the public ``le`` predicate and plain itertools, so agreement
between an oracle and a production routine is a genuine two-route check.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from dcpolab.cli import generate_corpus
from dcpolab.finposet import closure_from_covers


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
