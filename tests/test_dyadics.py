from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from conftest import fold_principal_chain, fold_to_rational, loop_dyadic_validate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcpolab.cli import main
from dcpolab.dyadics import (
    DEFAULT_FUEL,
    MIDDLE,
    DyadicBasis,
    FuelAnswer,
    StreamIdeal,
    dy_eq,
    dy_interpolant,
    dy_no_endpoints,
    dy_prec,
    dyadic_abstract_basis,
    enumerate_dyadics,
    format_path,
    left,
    no_compact_ideals_evidence,
    parse_path,
    principal_stream,
    right,
    stream_member,
    stream_way_below,
    to_rational,
)
from dcpolab.errors import ParseError, PreconditionViolated


def rand_dyadic(rng, max_depth):
    return "".join(rng.choice("LR") for _ in range(rng.randint(0, max_depth))) + MIDDLE


def paths(min_size, max_size):
    """Constructor strings with ``min_size`` to ``max_size`` L/R constructors."""
    return st.builds(
        lambda n, seed: "".join(random.Random(seed).choice("LR") for _ in range(n)) + MIDDLE,
        st.integers(min_size, max_size),
        st.integers(0, 2**32),
    )


# ----------------------------------------------------------- order table

def test_order_table_clauses():
    x, y = "LM", "RM"
    assert not dy_prec(MIDDLE, MIDDLE)
    assert dy_prec(left(x), MIDDLE)
    assert not dy_prec(right(x), MIDDLE)
    assert not dy_prec(MIDDLE, left(y))
    assert dy_prec(left("LM"), left("RM")) == dy_prec("LM", "RM")
    assert not dy_prec(right(x), left(y))
    assert dy_prec(MIDDLE, right(y))
    assert dy_prec(left(x), right(y))
    assert dy_prec(right("LM"), right("RM")) == dy_prec("LM", "RM")


def test_eq_and_parse():
    assert dy_eq("M", "M")
    assert not dy_eq("M", "LM")
    assert parse_path("L.R.M") == "LRM"
    assert format_path("LRM") == "L.R.M"
    with pytest.raises(ParseError):
        parse_path("L.R")
    with pytest.raises(ParseError):
        parse_path("X.M")


def test_to_rational_examples():
    assert to_rational("M") == 0
    assert to_rational("LM") == Fraction(-1, 2)
    assert to_rational("RLM") == Fraction(1, 4)


def test_to_rational_in_open_interval():
    rng = random.Random(4)
    for _ in range(500):
        q = to_rational(rand_dyadic(rng, 12))
        assert Fraction(-1) < q < Fraction(1)


def test_semantic_faithfulness_bulk():
    rng = random.Random(12)
    for _ in range(10_000):
        x, y = rand_dyadic(rng, 12), rand_dyadic(rng, 12)
        assert dy_prec(x, y) == (to_rational(x) < to_rational(y))


def test_trichotomy_exactly_one():
    rng = random.Random(5)
    for _ in range(4_000):
        x, y = rand_dyadic(rng, 10), rand_dyadic(rng, 10)
        checks = [dy_prec(x, y), dy_eq(x, y), dy_prec(y, x)]
        assert sum(checks) == 1


def test_transitive_irreflexive_exhaustive_depth6():
    elems = enumerate_dyadics(6)
    for x in elems:
        assert not dy_prec(x, x)
    below = {x: [y for y in elems if dy_prec(x, y)] for x in elems}
    for x in elems:
        for y in below[x]:
            for z in below[y]:
                assert dy_prec(x, z)


def test_interpolant_frozen_examples():
    assert dy_interpolant("M", "RM") == "RLM"
    assert dy_interpolant("LM", "M") == "LRM"
    assert dy_interpolant("LM", "RM") == "M"


def test_interpolant_strict_betweenness_random():
    rng = random.Random(6)
    done = 0
    while done < 3_000:
        x, y = rand_dyadic(rng, 10), rand_dyadic(rng, 10)
        if not dy_prec(x, y):
            continue
        z = dy_interpolant(x, y)
        assert dy_prec(x, z) and dy_prec(z, y)
        assert to_rational(x) < to_rational(z) < to_rational(y)
        done += 1


def test_interpolant_precondition():
    with pytest.raises(PreconditionViolated):
        dy_interpolant("RM", "M")


def test_no_endpoints():
    lo, hi = dy_no_endpoints("M")
    assert (lo, hi) == ("LM", "RM")
    rng = random.Random(7)
    for _ in range(300):
        x = rand_dyadic(rng, 10)
        lo, hi = dy_no_endpoints(x)
        assert dy_prec(lo, x) and dy_prec(x, hi)
        assert to_rational(lo) < to_rational(x) < to_rational(hi)


# ----------------------------------------------------------- abstract basis

def test_basis_nullary_witness_is_left():
    basis = dyadic_abstract_basis()
    for x in enumerate_dyadics(4):
        w = basis.nullary_witness(x)
        assert w == left(x)
        assert dy_prec(w, x)


def test_basis_binary_witness_equal_arguments():
    basis = dyadic_abstract_basis()
    w = basis.binary_witness("M", "M", "RM")
    assert dy_prec("M", w) and dy_prec(w, "RM")


def test_basis_validates_exhaustively_depth6():
    assert dyadic_abstract_basis().validate(6)


def test_basis_validates_exhaustively_depth7():
    assert dyadic_abstract_basis().validate(7)


class WitnessIsBound(DyadicBasis):
    def binary_witness(self, a1, a2, b):
        return b


class WitnessIsLarger(DyadicBasis):
    def binary_witness(self, a1, a2, b):
        return a2 if self.prec(a1, a2) else a1


class NullaryIsSelf(DyadicBasis):
    def nullary_witness(self, x):
        return x


class DropsPair(DyadicBasis):
    def prec(self, x, y):
        return (x, y) != ("LM", "RM") and dy_prec(x, y)


@pytest.mark.parametrize("basis", [DyadicBasis(), WitnessIsBound(), WitnessIsLarger(), NullaryIsSelf(), DropsPair()],
                         ids=lambda b: type(b).__name__)
@pytest.mark.parametrize("depth", range(5))
def test_validate_matches_the_loop_oracle(basis, depth):
    assert basis.validate(depth) == loop_dyadic_validate(basis, depth)


def test_validate_reads_the_basis_own_order():
    for depth in (1, 2, 3):
        assert not DropsPair().validate(depth)


@dataclass(frozen=True)
class Incomparables(DyadicBasis):
    """A toy order on letters, not the dyadics: a and h lie under b and are
    incomparable; z lies under everything.  Each witness factors through the
    larger argument (the first when they are incomparable), as in
    ``DyadicBasis.binary_witness``."""

    witness: dict
    below = {"z": "ahbvwu", "a": "bvu", "h": "bwu", "v": "b", "w": "b", "u": "b", "b": ""}

    def prec(self, x, y):
        return y in self.below[x]

    def enumerate(self, max_depth):
        return ["a", "h", "b"]

    def nullary_witness(self, x):
        return "z"

    def binary_witness(self, a1, a2, b):
        return self.witness[a2 if self.prec(a1, a2) else a1]


def test_validate_checks_incomparable_arguments():
    # The witness v of (a, b) lies above a but not above h, so the pair
    # (a1, a2) = (a, h) has no common witness; u lies above both.
    assert not loop_dyadic_validate(Incomparables({"a": "v", "h": "w"}), 0)
    assert not Incomparables({"a": "v", "h": "w"}).validate(0)
    assert loop_dyadic_validate(Incomparables({"a": "u", "h": "u"}), 0)
    assert Incomparables({"a": "u", "h": "u"}).validate(0)


def test_binary_witness_factors_through_the_larger_argument():
    basis = dyadic_abstract_basis()
    elems = enumerate_dyadics(4)
    for b in elems:
        for a1 in elems:
            for a2 in elems:
                if dy_prec(a1, b) and dy_prec(a2, b):
                    h = a2 if dy_prec(a1, a2) else a1
                    assert basis.binary_witness(a1, a2, b) == basis.binary_witness(h, h, b)


# ----------------------------------------------------------- deep paths

@settings(max_examples=40, deadline=None)
@given(paths(0, 5_000))
@example("L" * 5_000 + MIDDLE)
@example("R" * 5_000 + MIDDLE)
def test_to_rational_matches_the_fraction_fold(x):
    assert to_rational(x) == fold_to_rational(x)


@settings(max_examples=10, deadline=None)
@given(paths(5_000, 5_000))
def test_cmd_dyadic_rat_on_deep_paths(x):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["dyadic", "rat", format_path(x)])
    q = fold_to_rational(x)
    assert (code, out.getvalue()) == (0, f"{q.numerator}/{q.denominator}\n")


# ----------------------------------------------------------- stream ideals

def test_stream_member_examples():
    ideal = principal_stream("RM")
    assert stream_member(ideal, "M", 1) is FuelAnswer.YES
    assert stream_member(ideal, "RRM", 8) is FuelAnswer.NO_WITHIN_FUEL
    chain0 = ideal.chain(0)
    assert stream_member(ideal, left(chain0), 0) is FuelAnswer.YES


def test_stream_member_monotone_in_fuel():
    ideal = principal_stream("RRM")
    rng = random.Random(8)
    for _ in range(100):
        d = rand_dyadic(rng, 6)
        answers = [stream_member(ideal, d, fuel) for fuel in (0, 2, 4, 8, 16)]
        seen_yes = False
        for a in answers:
            if seen_yes:
                assert a is FuelAnswer.YES
            seen_yes = seen_yes or a is FuelAnswer.YES


def test_stream_chain_is_increasing():
    for x in ("M", "RM", "LLM", "RLRM"):
        gens = principal_stream(x).generators(12)
        for a, b in zip(gens, gens[1:]):
            assert dy_prec(a, b)
        assert all(dy_prec(g, x) for g in gens)


def test_stream_way_below_principal_inside_bigger_ideal():
    small = principal_stream("RM")
    big = principal_stream("RRM")  # contains RM
    assert stream_way_below(small, big, 8) is FuelAnswer.YES


def test_stream_way_below_self_unknown():
    for x in ("M", "RM", "LRM"):
        ideal = principal_stream(x)
        for fuel in (0, 4, 16):
            assert stream_way_below(ideal, ideal, fuel) is FuelAnswer.UNKNOWN


def test_stream_way_below_fuel_zero_unknown():
    a, b = principal_stream("M"), principal_stream("RM")
    assert stream_way_below(b, a, 0) is FuelAnswer.UNKNOWN


def test_no_compact_ideals_evidence():
    assert no_compact_ideals_evidence("M")
    rng = random.Random(9)
    for _ in range(50):
        assert no_compact_ideals_evidence(rand_dyadic(rng, 8), 16)


@settings(max_examples=60, deadline=None)
@given(paths(0, 12), st.lists(st.integers(-2, 16), max_size=8))
@example("M", [5, 2, 9])
def test_principal_chain_matches_the_fold_in_any_order(x, ns):
    stream = principal_stream(x)
    for n in ns:
        assert stream.chain(n) == fold_principal_chain(x, n)


@settings(max_examples=60, deadline=None)
@given(paths(0, 8), paths(0, 8), paths(0, 8), st.integers(0, 16))
def test_stream_answers_match_the_folded_streams(x, y, d, fuel):
    def folded(z):
        return StreamIdeal(chain=lambda n: fold_principal_chain(z, n))

    assert stream_member(principal_stream(x), d, fuel) is stream_member(folded(x), d, fuel)
    assert stream_way_below(principal_stream(x), principal_stream(y), fuel) is stream_way_below(
        folded(x), folded(y), fuel
    )
    assert no_compact_ideals_evidence(x, fuel) is (stream_way_below(folded(x), folded(x), fuel) is FuelAnswer.UNKNOWN)


def test_irreflexivity_bulk():
    rng = random.Random(10)
    for _ in range(10_000):
        x = rand_dyadic(rng, 12)
        assert not dy_prec(x, x)


def test_default_fuel_is_reasonable():
    assert DEFAULT_FUEL == 64
