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

Curves evaluate on integer pairs, with no ``Fraction`` between: a/b in
lowest terms in, both enclosure ends out as (numerator, denominator) pairs.
``BoundCurve.eval`` is the ``RatInterval`` view of that path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Callable, Optional, Sequence

from .enclosure import Pair, log_enclosure, log_pairs
from .errors import ContractViolationError, InternalContractError
from .geometry import RatInterval, RatPoint, as_rational

ZERO = Fraction(0)
ONE = Fraction(1)

#: enclosure ends (lower, upper), each an integer (numerator, denominator) pair with a positive denominator
Ends = tuple[Pair, Pair]


def _interval(ends: Ends) -> RatInterval:
    (lo_n, lo_d), (hi_n, hi_d) = ends
    return RatInterval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def entropy(q: int, delta: Fraction, precision: int) -> RatInterval:
    """Enclosure of H_q(delta), width <= 2**-precision; exact at the three
    algebraically exact sample points 0, 1 (for q = 2), and (q-1)/q."""
    delta = as_rational(delta)
    if delta == 1:
        return log_enclosure(Fraction(q - 1), q, precision)  # exactly 0 for q = 2
    return _interval(_entropy_pairs(q, delta.numerator, delta.denominator, precision))


def _entropy_pairs(q: int, a: int, b: int, precision: int) -> Ends:
    """Ends of ``entropy(q, a/b, precision)`` as ``log_pairs`` gives them; a/b in [0, 1), lowest terms."""
    if q < 2:
        raise ContractViolationError("alphabet size must be >= 2")
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
    # H = delta log_q(q - 1) - delta log_q(delta) - (1 - delta) log_q(1 - delta); the two log
    # ends on one side mostly share a denominator (an end of log2 q), which then counts once
    dh_k, ch_k = (1, 1) if dh_d == ch_d else (dh_d, ch_d)
    dl_k, cl_k = (1, 1) if dl_d == cl_d else (dl_d, cl_d)
    lo_n = a * (al * dh_d - dh * al_d) * ch_k - c * ch * al_d * dh_k
    lo_d = b * al_d * dh_d * ch_k
    hi_n = a * (ah * dl_d - dl * ah_d) * cl_k - c * cl * ah_d * dl_k
    hi_d = b * ah_d * dl_d * cl_k
    if (hi_n * lo_d - lo_n * hi_d) << precision > hi_d * lo_d:
        raise InternalContractError("entropy enclosure wider than its log ends allow")
    return (lo_n, lo_d), (hi_n, hi_d)


@lru_cache(maxsize=256)
def _alpha(q: int, bits: int) -> tuple[Pair, Pair]:
    """``log_pairs(q - 1, 1, q, bits)``, computed once per pair."""
    return log_pairs(q - 1, 1, q, bits)


def _one_minus(ends: Ends, halves: int = 0) -> Ends:
    """Ends of (1 - H) / 2**halves from the ends of H."""
    (lo_n, lo_d), (hi_n, hi_d) = ends
    return (hi_d - hi_n, hi_d << halves), (lo_d - lo_n, lo_d << halves)


def vg_curve(q: int, delta: Fraction, precision: int) -> RatInterval:
    """Enclosure of (1 - H_q(delta)) / 2 on [0, 1 - 1/q].

    Exactly 1/2 at delta = 0 and exactly 0 at delta = 1 - 1/q.
    """
    delta = as_rational(delta)
    if not 0 <= delta <= Fraction(q - 1, q):
        raise ContractViolationError(f"delta outside [0, 1 - 1/{q}]")
    return _interval(_one_minus(_entropy_pairs(q, delta.numerator, delta.denominator, precision + 1), halves=1))


class BoundCurve:
    """Monotone non-increasing curve on [0, 1] with two-sided evaluation.

    ``evaluator(a, b, precision)`` gives the enclosure ends at a/b (lowest
    terms, in [0, 1]) as integer pairs; ``from_intervals`` adapts one giving
    a ``RatInterval`` at a ``Fraction``. ``span`` is the closed delta interval
    the curve is defined on, all of [0, 1] unless a polyline passes its own;
    the grid deciders clip to it. ``continuous`` gates use by the grid
    deciders, whose correctness needs the intermediate value property.

    Evaluations are memoized under the reduced (a, b, precision); entries are
    value-deterministic, so concurrent readers see identical results
    regardless of interleaving.
    """

    def __init__(
        self,
        name: str,
        evaluator: Callable[[int, int, int], Ends],
        span: tuple[Fraction, Fraction] = (ZERO, ONE),
        continuous: bool = True,
    ):
        self.name = name
        self._evaluator = evaluator
        self.span = span
        self.continuous = continuous
        self._memo: dict[tuple[int, int, int], Ends] = {}

    @classmethod
    def from_intervals(cls, name: str, evaluator: Callable[[Fraction, int], RatInterval],
                       span: tuple[Fraction, Fraction] = (ZERO, ONE), continuous: bool = True) -> "BoundCurve":
        """Curve from an evaluator giving a ``RatInterval`` at a ``Fraction`` delta."""
        def ends(a: int, b: int, precision: int) -> Ends:
            value = evaluator(Fraction(a, b), precision)
            return (value.lo.numerator, value.lo.denominator), (value.hi.numerator, value.hi.denominator)

        return cls(name, ends, span, continuous)

    def eval_pairs(self, num: int, den: int, precision: int) -> Ends:
        """Enclosure ends at num/den, for den >= 1, as integer pairs."""
        g = math.gcd(num, den)
        key = (num // g, den // g, precision)
        hit = self._memo.get(key)
        if hit is None:
            if not 0 <= num <= den:
                raise ContractViolationError("curves evaluate on [0, 1]")
            hit = self._memo[key] = self._evaluator(*key)
        return hit

    def eval(self, delta: Fraction, precision: int) -> RatInterval:
        delta = as_rational(delta)
        return _interval(self.eval_pairs(delta.numerator, delta.denominator, precision))

    def __repr__(self):
        return f"BoundCurve({self.name!r})"


def _zero_from_edge(name: str, q: int, inside: Callable[[int, int, int], Ends], continuous: bool = True) -> BoundCurve:
    """Curve that is ``inside`` below 1 - 1/q and exactly zero from there on: a q >= (q - 1) b."""
    def evaluate(a: int, b: int, precision: int) -> Ends:
        return ((0, 1), (0, 1)) if a * q >= (q - 1) * b else inside(a, b, precision)

    return BoundCurve(name, evaluate, continuous=continuous)


def vg_bound_curve(q: int, entropy: Optional[Callable[[int, int, int], Ends]] = None) -> BoundCurve:
    """Total form of the random-coding curve: zero beyond 1 - 1/q."""
    entropy = entropy or partial(_entropy_pairs, q)
    return _zero_from_edge(f"vg_q{q}", q, lambda a, b, p: _one_minus(entropy(a, b, p + 1), halves=1))


def gv_lower_curve(q: int, entropy: Optional[Callable[[int, int, int], Ends]] = None) -> BoundCurve:
    """Classical sphere-covering lower bracket 1 - H_q(delta), zero beyond 1 - 1/q."""
    entropy = entropy or partial(_entropy_pairs, q)
    return _zero_from_edge(f"gv_lower_q{q}", q, lambda a, b, p: _one_minus(entropy(a, b, p + 1)))


def hamming_curve(q: int, entropy: Optional[Callable[[int, int, int], Ends]] = None) -> BoundCurve:
    """Sphere-packing upper curve 1 - H_q(delta / 2); a/b in lowest terms halves to a lowest-terms pair."""
    entropy = entropy or partial(_entropy_pairs, q)
    return BoundCurve(f"hamming_q{q}", lambda a, b, p: _one_minus(
        entropy(*((a // 2, b) if a % 2 == 0 else (a, 2 * b)), p + 1)))


def _line(a: int, b: int, precision: int) -> Ends:
    """The exact value 1 - a/b."""
    return (b - a, b), (b - a, b)


def singleton_curve() -> BoundCurve:
    """The exact line R = 1 - delta."""
    return BoundCurve("singleton", _line)


def upper_bracket_curve(q: int) -> BoundCurve:
    """Pointwise min of the line 1 - delta and the mandatory zero region
    delta >= 1 - 1/q. Exact but discontinuous at the zero edge, so it is for
    tables and plots, not for the grid deciders."""
    return _zero_from_edge(f"singleton_zero_q{q}", q, _line, continuous=False)


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
        # vertex coordinates as integers over one common denominator
        self._den = math.lcm(*(c.denominator for v in vertices for c in (v.delta, v.r)))
        self._xs = [v.delta.numerator * (self._den // v.delta.denominator) for v in vertices]
        self._ys = [v.r.numerator * (self._den // v.r.denominator) for v in vertices]
        name = "polyline:" + ";".join(f"{v.delta},{v.r}" for v in self.vertices)
        super().__init__(name, self._value, span=(vertices[0].delta, vertices[-1].delta))

    def _value(self, a: int, b: int, precision: int) -> Ends:
        """The value at a/b, interpolated by integer cross-multiplication, as a zero-width enclosure."""
        xs, ys, den = self._xs, self._ys, self._den
        if not xs[0] * b <= a * den <= xs[-1] * b:
            lo, hi = self.span
            raise ContractViolationError(f"delta {Fraction(a, b)} outside polyline span [{lo}, {hi}]")
        k = next(k for k in range(1, len(xs)) if a * den <= xs[k] * b)
        run = xs[k] - xs[k - 1]
        # (y0 + (a/b - x0/D) / (run/D) * (y1 - y0)) / D over the common denominator D
        value = (ys[k - 1] * b * run + (a * den - xs[k - 1] * b) * (ys[k] - ys[k - 1]), den * b * run)
        return value, value

    def value_exact(self, delta: Fraction) -> Fraction:
        delta = as_rational(delta)
        return Fraction(*self._value(delta.numerator, delta.denominator, 0)[0])


def diagonal_curve() -> PolylineCurve:
    """The line from (delta=0, R=1) to (delta=1, R=0)."""
    return PolylineCurve([RatPoint.of(1, 0), RatPoint.of(0, 1)])


def constant_curve(level: Fraction) -> PolylineCurve:
    """Horizontal line R = level across the whole square."""
    level = as_rational(level)
    return PolylineCurve([RatPoint.of(level, 0), RatPoint.of(level, 1)])


def named_curves(names: Sequence[str], q: int) -> list[BoundCurve]:
    """``named_curve`` of each name; the entropy curves among them take H_q's ends from one memo
    under the reduced (a, b, precision), so each point is evaluated once, and it lives as long as they do."""
    entropy = cache(partial(_entropy_pairs, q))
    return [named_curve(name, q, entropy) for name in names]


def named_curve(name: str, q: int, entropy: Optional[Callable[[int, int, int], Ends]] = None) -> BoundCurve:
    """Curve registry used by the command line: vg, gv_lower, singleton,
    hamming, singleton_zero, synthetic:diag, or synthetic:d,r;d,r;..."""
    if name == "vg":
        return vg_bound_curve(q, entropy)
    if name == "gv_lower":
        return gv_lower_curve(q, entropy)
    if name == "singleton":
        return singleton_curve()
    if name == "hamming":
        return hamming_curve(q, entropy)
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
        return PolylineCurve(vertices)
    raise ContractViolationError(f"unknown curve name {name!r}")
