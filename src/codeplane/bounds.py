"""Bound curves on the rate/distance square with certified interval values.

The central evaluator is the q-ary entropy

    H_q(x) = x log_q(q-1) - x log_q(x) - (1-x) log_q(1-x),

whose value at (q-1)/q is exactly 1 and at 0 exactly 0; those sample points
are special-cased so curve endpoints come out as exact rationals, not
enclosures. The random-coding curve evaluated here is

    R(delta) = (1 - H_q(delta)) / 2,

which is decreasing, equals 1/2 at 0 and 0 at 1 - 1/q. (The factor 1/2
reflects that typical minimum distances of random unstructured codes are
governed by the pairwise-collision exponent, half the single-word one.)

No curve in this module claims to be the true limiting boundary of code
points; that boundary has no known formula. The module provides bracketing
curves around it, plus exactly decidable synthetic polylines used to
exercise the pixel algorithms where ground truth is computable.

``BoundCurve`` objects evaluate on the whole of [0, 1], polylines on their
own span; curves whose classical domain ends at 1 - 1/q continue with
exact zero, keeping them monotone and total, which is what the grid
algorithms need.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .enclosure import Pair, log_enclosure, log_pairs
from .errors import ContractViolationError, InternalContractError
from .geometry import RatInterval, RatPoint, as_rational

ZERO = Fraction(0)
ONE = Fraction(1)


def entropy(q: int, delta: Fraction, precision: int) -> RatInterval:
    """Enclosure of H_q(delta), width <= 2**-precision; exact at the three
    algebraically exact sample points 0, 1 (for q = 2), and (q-1)/q."""
    if as_rational(delta) == 1:
        return log_enclosure(Fraction(q - 1), q, precision)  # exactly 0 for q = 2
    (lo_n, lo_d), (hi_n, hi_d) = _entropy_pairs(q, delta, precision)
    return RatInterval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def _entropy_pairs(q: int, delta: Fraction, precision: int) -> tuple[Pair, Pair]:
    """Ends of ``entropy(q, delta, precision)`` as ``log_pairs`` gives them; delta in [0, 1)."""
    if q < 2:
        raise ContractViolationError("alphabet size must be >= 2")
    delta = as_rational(delta)
    a, b = delta.numerator, delta.denominator
    if not 0 <= a < b:
        raise ContractViolationError("entropy argument must lie in [0, 1]")
    if a == 0:
        return (0, 1), (0, 1)  # x log x -> 0 convention
    if a == q - 1 and b == q:
        return (1, 1), (1, 1)
    c = b - a  # 1 - delta = c/b, also in lowest terms
    # each log_q end below is within 2**-bits, so H's width is at most
    # (1 + delta) * 2**-bits < 2**-(precision + 2): one evaluation always suffices
    bits = precision + 3
    (al, al_d), (ah, ah_d) = _alpha(q, bits)
    (dl, dl_d), (dh, dh_d) = log_pairs(a, b, q, bits)
    (cl, cl_d), (ch, ch_d) = log_pairs(c, b, q, bits)
    # H = delta log_q(q - 1) - delta log_q(delta) - (1 - delta) log_q(1 - delta)
    lo_n = a * (al * dh_d - dh * al_d) * ch_d - c * ch * al_d * dh_d
    lo_d = b * al_d * dh_d * ch_d
    hi_n = a * (ah * dl_d - dl * ah_d) * cl_d - c * cl * ah_d * dl_d
    hi_d = b * ah_d * dl_d * cl_d
    if (hi_n * lo_d - lo_n * hi_d) << precision > hi_d * lo_d:
        raise InternalContractError("entropy enclosure wider than its log ends allow")
    return (lo_n, lo_d), (hi_n, hi_d)


@lru_cache(maxsize=256)
def _alpha(q: int, bits: int) -> tuple[Pair, Pair]:
    """``log_pairs(q - 1, 1, q, bits)``, computed once per pair."""
    return log_pairs(q - 1, 1, q, bits)


def _one_minus_entropy(q: int, delta: Fraction, precision: int, halves: int = 0) -> RatInterval:
    """(1 - H_q(delta)) / 2**halves, H to width 2**-precision, for delta in [0, 1)."""
    (lo_n, lo_d), (hi_n, hi_d) = _entropy_pairs(q, delta, precision)
    return RatInterval(Fraction(hi_d - hi_n, hi_d << halves), Fraction(lo_d - lo_n, lo_d << halves))


def vg_curve(q: int, delta: Fraction, precision: int) -> RatInterval:
    """Enclosure of (1 - H_q(delta)) / 2 on [0, 1 - 1/q].

    Exactly 1/2 at delta = 0 and exactly 0 at delta = 1 - 1/q.
    """
    delta = as_rational(delta)
    if not 0 <= delta <= Fraction(q - 1, q):
        raise ContractViolationError(f"delta outside [0, 1 - 1/{q}]")
    return _one_minus_entropy(q, delta, precision + 1, halves=1)


class BoundCurve:
    """Monotone non-increasing curve on [0, 1] with two-sided evaluation.

    ``span`` is the closed delta interval the curve is defined on, all of
    [0, 1] unless a polyline passes its own; the grid deciders clip to it.
    ``continuous`` gates use by the grid deciders, whose correctness needs
    the intermediate value property.

    Evaluations are memoized; entries are value-deterministic, so concurrent
    readers see identical results regardless of interleaving.
    """

    def __init__(
        self,
        name: str,
        evaluator: Callable[[Fraction, int], RatInterval],
        span: tuple[Fraction, Fraction] = (ZERO, ONE),
        continuous: bool = True,
    ):
        self.name = name
        self._evaluator = evaluator
        self.span = span
        self.continuous = continuous
        self._memo: dict[tuple[Fraction, int], RatInterval] = {}

    def eval(self, delta: Fraction, precision: int) -> RatInterval:
        delta = as_rational(delta)
        if not 0 <= delta <= 1:
            raise ContractViolationError("curves evaluate on [0, 1]")
        key = (delta, precision)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._evaluator(delta, precision)
            self._memo[key] = hit
        return hit

    def __repr__(self):
        return f"BoundCurve({self.name!r})"


def vg_bound_curve(q: int) -> BoundCurve:
    """Total form of the random-coding curve: zero beyond 1 - 1/q."""
    edge = Fraction(q - 1, q)

    def evaluate(delta: Fraction, precision: int) -> RatInterval:
        if delta >= edge:
            return RatInterval.point(ZERO)
        return vg_curve(q, delta, precision)

    return BoundCurve(f"vg_q{q}", evaluate)


def gv_lower_curve(q: int) -> BoundCurve:
    """Classical sphere-covering lower bracket 1 - H_q(delta), zero beyond 1 - 1/q."""
    edge = Fraction(q - 1, q)

    def evaluate(delta: Fraction, precision: int) -> RatInterval:
        if delta >= edge:
            return RatInterval.point(ZERO)
        return _one_minus_entropy(q, delta, precision + 1)

    return BoundCurve(f"gv_lower_q{q}", evaluate)


def hamming_curve(q: int) -> BoundCurve:
    """Sphere-packing upper curve 1 - H_q(delta / 2)."""

    def evaluate(delta: Fraction, precision: int) -> RatInterval:
        return _one_minus_entropy(q, delta / 2, precision + 1)

    return BoundCurve(f"hamming_q{q}", evaluate)


def singleton_curve() -> BoundCurve:
    """The exact line R = 1 - delta."""

    def evaluate(delta: Fraction, precision: int) -> RatInterval:
        return RatInterval.point(ONE - delta)

    return BoundCurve("singleton", evaluate)


def upper_bracket_curve(q: int) -> BoundCurve:
    """Pointwise min of the line 1 - delta and the mandatory zero region
    delta >= 1 - 1/q. Exact but discontinuous at the zero edge, so it is for
    tables and plots, not for the grid deciders."""
    edge = Fraction(q - 1, q)

    def evaluate(delta: Fraction, precision: int) -> RatInterval:
        if delta >= edge:
            return RatInterval.point(ZERO)
        return RatInterval.point(ONE - delta)

    return BoundCurve(f"singleton_zero_q{q}", evaluate, continuous=False)


def bracket_curves(q: int) -> tuple[BoundCurve, BoundCurve]:
    """(lower, upper) bracket pair: lower <= upper pointwise, both with the
    documented boundary behavior (1 at delta = 0, 0 from 1 - 1/q on)."""
    return gv_lower_curve(q), upper_bracket_curve(q)


class PolylineCurve(BoundCurve):
    """Piecewise-linear non-increasing curve with exact rational evaluation.

    Vertices are given in increasing delta order; evaluation anywhere in
    [vertex_0.delta, vertex_last.delta] is a zero-width interval, so every
    grid-ball decision against the curve is exact.
    """

    def __init__(self, vertices: Sequence[RatPoint]):
        if len(vertices) < 2:
            raise ContractViolationError("polyline needs at least two vertices")
        for a, b in zip(vertices, vertices[1:]):
            if not b.delta > a.delta:
                raise ContractViolationError("vertex deltas must strictly increase")
            if b.r > a.r:
                raise ContractViolationError("vertex rates must be non-increasing")
        self.vertices = tuple(vertices)
        span = (vertices[0].delta, vertices[-1].delta)

        def evaluate(delta: Fraction, precision: int) -> RatInterval:
            return RatInterval.point(self.value_exact(delta))

        name = "polyline:" + ";".join(f"{v.delta},{v.r}" for v in self.vertices)
        super().__init__(name, evaluate, span=span)

    def value_exact(self, delta: Fraction) -> Fraction:
        delta = as_rational(delta)
        lo, hi = self.span
        if not lo <= delta <= hi:
            raise ContractViolationError(f"delta {delta} outside polyline span [{lo}, {hi}]")
        verts = self.vertices
        for a, b in zip(verts, verts[1:]):
            if delta <= b.delta:
                t = (delta - a.delta) / (b.delta - a.delta)
                return a.r + t * (b.r - a.r)
        raise ContractViolationError("unreachable: delta inside span")


def synthetic_polyline(vertices: Sequence[RatPoint]) -> PolylineCurve:
    """Exactly decidable test curve through the given vertices."""
    return PolylineCurve(vertices)


def diagonal_curve() -> PolylineCurve:
    """The line from (delta=0, R=1) to (delta=1, R=0)."""
    return PolylineCurve([RatPoint.of(1, 0), RatPoint.of(0, 1)])


def constant_curve(level: Fraction) -> PolylineCurve:
    """Horizontal line R = level across the whole square."""
    level = as_rational(level)
    return PolylineCurve([RatPoint.of(level, 0), RatPoint.of(level, 1)])


def named_curve(name: str, q: int) -> BoundCurve:
    """Curve registry used by the command line: vg, gv_lower, singleton,
    hamming, singleton_zero, synthetic:diag, or synthetic:d,r;d,r;..."""
    if name == "vg":
        return vg_bound_curve(q)
    if name == "gv_lower":
        return gv_lower_curve(q)
    if name == "singleton":
        return singleton_curve()
    if name == "hamming":
        return hamming_curve(q)
    if name == "singleton_zero":
        return upper_bracket_curve(q)
    if name == "synthetic:diag":
        return diagonal_curve()
    if name.startswith("synthetic:"):
        pairs = name.split(":", 1)[1]
        vertices = []
        try:
            for chunk in pairs.split(";"):
                d_str, r_str = chunk.split(",")
                vertices.append(RatPoint.of(Fraction(r_str), Fraction(d_str)))
        except (ValueError, ZeroDivisionError):
            raise ContractViolationError(
                f"bad synthetic curve {name!r}; expected synthetic:d,r;d,r;..."
            ) from None
        return synthetic_polyline(vertices)
    raise ContractViolationError(f"unknown curve name {name!r}")
