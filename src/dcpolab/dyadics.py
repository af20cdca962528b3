"""The inductive dyadic type, its strict order, and stream-form ideals.

A dyadic is encoded as a constructor string read outside-in: ``"M"`` is the
middle point 0, ``"L" + x`` is (x-1)/2 and ``"R" + x`` is (x+1)/2.  The
surface syntax is a dotted path, e.g. ``L.R.M`` for Left(Right(Middle)).

Everything here is exact: the semantic oracle works in ``fractions.Fraction``
and never touches floating point.

The ideal completion of the dyadics is infinite, so its ideals travel as
streams: a cofinal generator sequence plus a fuel bound.  Fuelled queries
answer in three values (yes / no-within-fuel / unknown) so that questions that
are undecidable in general never get a lying answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .errors import ParseError, PreconditionViolated
from .finposet import bool_product

MIDDLE = "M"

DEFAULT_FUEL = 64


def left(x: str) -> str:
    return "L" + x


def right(x: str) -> str:
    return "R" + x


def is_dyadic(x: str) -> bool:
    return len(x) >= 1 and x[-1] == MIDDLE and all(c in "LR" for c in x[:-1])


def _require(x: str) -> str:
    if not is_dyadic(x):
        raise ParseError(f"{x!r} is not a dyadic constructor string")
    return x


def parse_path(text: str) -> str:
    """Read a dotted path like ``L.R.M`` into a constructor string."""
    parts = text.strip().split(".")
    if not parts or parts[-1] != "M" or any(p not in ("L", "R") for p in parts[:-1]):
        raise ParseError(f"{text!r} is not a dyadic path (expected e.g. L.R.M)")
    return "".join(parts)


def format_path(x: str) -> str:
    return ".".join(_require(x))


@lru_cache(maxsize=None)
def dy_prec(x: str, y: str) -> bool:
    """The strict order, by structural recursion on both constructors."""
    hx, hy = x[0], y[0]
    if hy == "M":
        return hx == "L"
    if hy == "L":
        return hx == "L" and dy_prec(x[1:], y[1:])
    # hy == "R"
    if hx == "R":
        return dy_prec(x[1:], y[1:])
    return True


def dy_eq(x: str, y: str) -> bool:
    """Decidable structural equality."""
    return _require(x) == _require(y)


def to_rational(x: str) -> Fraction:
    """Exact value in (-1, 1): M is 0, L halves toward -1, R halves toward 1.

    The fold runs on the integer pair (num, den), since (num/den -/+ 1)/2 is
    (num -/+ den)/(2 den); one ``Fraction`` at the end reduces it once."""
    _require(x)
    num, den = 0, 1
    for c in reversed(x[:-1]):
        num, den = (num - den if c == "L" else num + den), 2 * den
    return Fraction(num, den)


def dy_interpolant(x: str, y: str) -> str:
    """A dyadic strictly between x and y, by the constructive case analysis
    on the order rather than by rational search."""
    if not dy_prec(x, y):
        raise PreconditionViolated(f"{format_path(x)} is not below {format_path(y)}")
    hx, hy = x[0], y[0]
    if hx == "M" and hy == "R":
        return right(left(y[1:]))
    if hx == "L" and hy == "M":
        return left(right(x[1:]))
    if hx == "L" and hy == "R":
        return MIDDLE
    if hx == "R" and hy == "R":
        return right(dy_interpolant(x[1:], y[1:]))
    # hx == "L" and hy == "L"
    return left(dy_interpolant(x[1:], y[1:]))


def dy_no_endpoints(x: str) -> tuple:
    """Witnesses left(x) < x < right(x), verified before returning."""
    lo, hi = left(_require(x)), right(x)
    if not (dy_prec(lo, x) and dy_prec(x, hi)):
        raise PreconditionViolated(f"endpoint law failed at {format_path(x)}")
    return lo, hi


def enumerate_dyadics(max_depth: int):
    """All dyadics with at most ``max_depth`` L/R constructors, canonically:
    shallow before deep, L before R at equal depth."""
    out = []
    for depth in range(max_depth + 1):
        for prefix in product("LR", repeat=depth):
            out.append("".join(prefix) + MIDDLE)
    return out


@dataclass(frozen=True)
class DyadicBasis:
    """The dyadics with their strict order, as an enumerable abstract basis.

    Interpolation witnesses are supplied constructively: the nullary witness
    below x is left(x); the binary witness for a1, a2 under b runs the
    trichotomy and reuses density.
    """

    def prec(self, x, y) -> bool:
        return dy_prec(x, y)

    def enumerate(self, max_depth: int):
        return enumerate_dyadics(max_depth)

    def nullary_witness(self, x: str) -> str:
        return left(_require(x))

    def binary_witness(self, a1: str, a2: str, b: str) -> str:
        """Trichotomy on a1 and a2, then density between the larger and b.

        The witness depends on a1 and a2 only through the larger of the two
        (a1 when they are equal or incomparable), so it equals
        ``binary_witness(h, h, b)`` for that larger h; ``validate`` relies
        on this."""
        if not (self.prec(a1, b) and self.prec(a2, b)):
            raise PreconditionViolated("witness requested above a non-bound")
        if dy_eq(a1, a2):
            return dy_interpolant(a1, b)
        hi = a2 if self.prec(a1, a2) else a1
        return dy_interpolant(hi, b)

    def validate(self, max_depth: int) -> bool:
        """Exhaustively re-check the basis axioms on the depth-bounded carrier,
        accepting constructive witnesses of any depth.

        Everything is read from ``self.prec``, tabulated once over the n
        elements as ``P``; transitivity holds when ``P @ P`` adds nothing.
        Binary interpolation asks, for all a1, a2 < b, that a1, a2 < w < b
        with w = ``binary_witness(a1, a2, b)``.  That witness factors through
        the larger argument h, so one witness per pair h < b suffices, and
        the arguments it must lie above are the a <= h (one boolean product
        against the table of a < w) together with the a < b incomparable to
        h, of which a trichotomous order such as the dyadics' has none.  This
        is the triple loop over (a1, a2, b), entry for entry, at O(n |W|)
        calls of ``prec`` for the |W| distinct witnesses instead of n^3.
        """
        elems = self.enumerate(max_depth)
        n = len(elems)
        prec = self.prec
        P = np.array([[prec(x, y) for y in elems] for x in elems], dtype=bool).reshape(n, n)
        if (bool_product(P, P) & ~P).any():
            return False
        if not all(prec(self.nullary_witness(x), x) for x in elems):
            return False
        hs, bs = np.nonzero(P)
        index = {}
        col = np.array([index.setdefault(self.binary_witness(elems[h], elems[h], elems[b]), len(index))
                        for h, b in zip(hs.tolist(), bs.tolist())], dtype=np.intp)
        ws = list(index)
        Q = np.array([[prec(a, w) for w in ws] for a in elems], dtype=bool).reshape(n, len(ws))
        R = np.array([[prec(w, b) for b in elems] for w in ws], dtype=bool).reshape(len(ws), n)
        if not R[col, bs].all():
            return False
        below_or_equal = P | np.eye(n, dtype=bool)
        if bool_product(below_or_equal.T, ~Q)[hs, col].any():
            return False
        incomparable = ~(below_or_equal | P.T)
        k = np.nonzero(incomparable[hs].any(axis=1))[0]
        return not (incomparable[hs[k]] & P[:, bs[k]].T & ~Q[:, col[k]].T).any()


def dyadic_abstract_basis() -> DyadicBasis:
    return DyadicBasis()


class FuelAnswer(Enum):
    """Fuelled three-valued verdicts; the negative ones are not refutations."""

    YES = "yes"
    NO_WITHIN_FUEL = "no-within-fuel"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class StreamIdeal:
    """An ideal of the dyadic basis, represented by a cofinal generator chain.

    ``chain(n)`` must be strictly increasing in n; membership of d means
    d < chain(n) for some n. Queries only ever probe n up to the fuel.
    """

    chain: Callable[[int], str]
    fuel_default: int = DEFAULT_FUEL

    def generators(self, fuel: int):
        probed = [self.chain(n) for n in range(fuel + 1)]
        for a, b in zip(probed, probed[1:]):
            if not dy_prec(a, b):
                raise PreconditionViolated("generator chain is not increasing")
        return probed


def principal_stream(x: str) -> StreamIdeal:
    """The ideal of everything strictly under x, generated from below.

    The chain starts at the interpolant between left(x) and x and keeps
    interpolating toward x; it is strictly increasing and cofinal in the
    strict lower set of x by density.  Each stream keeps the generators it
    has computed, so ``chain(n)`` extends them on demand and probes every
    interpolant once; a negative n gives the first generator, as the fold
    from scratch does.
    """
    _require(x)
    gens = []

    def chain(n: int) -> str:
        n = max(n, 0)
        while len(gens) <= n:
            gens.append(dy_interpolant(gens[-1] if gens else left(x), x))
        return gens[n]

    return StreamIdeal(chain=chain)


def stream_member(ideal: StreamIdeal, d: str, fuel: int | None = None) -> FuelAnswer:
    """Search the probed generators for one dominating d."""
    fuel = ideal.fuel_default if fuel is None else fuel
    for g in ideal.generators(fuel):
        if dy_prec(d, g):
            return FuelAnswer.YES
    return FuelAnswer.NO_WITHIN_FUEL

def stream_way_below(i_ideal: StreamIdeal, j_ideal: StreamIdeal, fuel: int | None = None) -> FuelAnswer:
    """Semi-decide way-below: yes when some probed member of the right ideal
    dominates every probed generator of the left one."""
    fuel = i_ideal.fuel_default if fuel is None else fuel
    i_gens = i_ideal.generators(fuel)
    for candidate in j_ideal.generators(fuel):
        if all(dy_prec(g, candidate) for g in i_gens):
            return FuelAnswer.YES
    return FuelAnswer.UNKNOWN


def no_compact_ideals_evidence(x: str, fuel: int = DEFAULT_FUEL) -> bool:
    """The refutation schema for compactness of a principal ideal.

    A compact ideal would put some x inside its own strict lower bound,
    forcing x < x; the order is irreflexive, and the fuelled self-way-below
    query accordingly never answers yes.
    """
    if dy_prec(x, x):
        return False
    down_x = principal_stream(x)
    return stream_way_below(down_x, down_x, fuel) is FuelAnswer.UNKNOWN
