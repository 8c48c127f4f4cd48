"""Certified two-sided logarithm enclosures over exact rationals.

``log2_enclosure`` reduces its argument to x = 2**t * y with y in [1, 2)
and returns [t + D/2**J, t + (D + 1)/2**J], where J = precision + 2 and
D = floor(2**J * log2 y) holds the first J binary digits of log2 y.
D comes from the atanh series in fixed-point integers:

    ln y = 2 atanh(s),  s = (y - 1)/(y + 1) in [0, 1/3),
    ln 2 = 2 atanh(1/3),  atanh(s) = sum over k of s**(2k+1) / (2k+1),

so log2 y = atanh(s) / atanh(1/3). Both series are summed at W = J + guard
fractional bits with every step truncated down, which gives a lower bound
short by less than 3K + 3 units of 2**-W after K terms (derived at
``_atanh_scaled``). D is accepted when both ends of the resulting bracket
on log2 y floor to the same J-bit integer (Ziv's rounding test); otherwise
the guard doubles. log2 of a rational that is not a power of two is
irrational, so the test passes at some finite guard. An argument wider
than W bits is first bracketed between two W-bit dyadics, log being
monotone. Precision is requested in bits of enclosure width. Endpoints are
exact rationals; every operation downstream of D is exact Fraction
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContractViolationError, InternalContractError
from .geometry import RatInterval


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def pow2(k: int) -> Fraction:
    """2**k as an exact rational, k may be negative."""
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << (-k))


def log2_enclosure(x: Fraction, precision: int) -> RatInterval:
    """Enclosure of log2(x) with width <= 2**-precision.

    Exact (zero-width) for powers of two. ``x`` must be positive.
    """
    x = Fraction(x)
    if x <= 0:
        raise ContractViolationError("log2 requires a positive argument")
    if precision < 1:
        raise ContractViolationError("precision must be a positive bit count")

    p, q = x.numerator, x.denominator
    if _is_power_of_two(p) and _is_power_of_two(q):
        exact = p.bit_length() - q.bit_length()
        return RatInterval.point(Fraction(exact))

    # argument reduction: x = 2**t * num/den with num/den in [1, 2)
    t = p.bit_length() - q.bit_length()
    num, den = (p, q << t) if t >= 0 else (p << -t, q)
    if num < den:
        t -= 1
        num <<= 1

    digits = precision + 2
    guard = 20
    for _attempt in range(32):
        w = digits + guard
        if num.bit_length() > w:
            c = (num << w) // den  # num/den in [c, c + 1] / 2**w
            lo = _atanh_scaled(c - (1 << w), c + (1 << w), w)[0]
            hi = _atanh_scaled(c + 1 - (1 << w), c + 1 + (1 << w), w)[1]
        else:
            lo, hi = _atanh_scaled(num - den, num + den, w)
        ln2_lo, ln2_hi = _ln2_scaled(w)
        d = (lo << digits) // ln2_hi
        # y < 2, so D < 2**J even where the bracket reaches log2 2 = 1
        if d == min((hi << digits) // ln2_lo, (1 << digits) - 1):
            d += t << digits
            return RatInterval(Fraction(d, 1 << digits), Fraction(d + 1, 1 << digits))
        guard *= 2
    raise InternalContractError("log2 series failed to separate from a dyadic")


def _atanh_scaled(a: int, b: int, w: int):
    """(lo, hi) with lo <= 2**w * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    With s = a/b, term k is floor(p_k / (2k+1)), where p_0 = floor(2**w s)
    and p_k = floor(p_(k-1) s**2). Each floor loses less than 1 and s**2 <=
    1/9 shrinks the loss inherited from p_(k-1), so p_k falls short of
    2**w s**(2k+1) by e_k < 1 + e_(k-1)/9 < 9/8 and term k falls short by
    less than 9/8 + 1 < 3. The sum stops at the first p_K == 0; the tail it
    drops is at most 2**w s**(2K+1) * 9/8 = e_K * 9/8 < 3. So the sum lo
    falls short by less than 3K + 3.
    """
    a2, b2 = a * a, b * b
    power = (a << w) // b
    total = 0
    k = 1
    while power:
        total += power // k
        power = power * a2 // b2
        k += 2
    return total, total + 3 * (k // 2) + 3


@lru_cache(maxsize=256)
def _ln2_scaled(w: int) -> tuple[int, int]:
    """``_atanh_scaled(1, 3, w)``, the ln 2 series, summed once per width."""
    return _atanh_scaled(1, 3, w)


@lru_cache(maxsize=256)
def _log2_int(base: int, bits: int) -> RatInterval:
    """``log2_enclosure(Fraction(base), bits)``, computed once per pair."""
    return log2_enclosure(Fraction(base), bits)


def log_enclosure(x: Fraction, base: int, precision: int) -> RatInterval:
    """Enclosure of log_base(x) with width <= 2**-precision, base >= 2.

    Exact (zero width) when x is an integer power of the base."""
    if base < 2:
        raise ContractViolationError("logarithm base must be >= 2")
    x = Fraction(x)
    if x <= 0:
        raise ContractViolationError("logarithm requires a positive argument")
    exact = _integer_power_of(x, base)
    if exact is not None:
        return RatInterval.point(Fraction(exact))
    target = pow2(-precision)
    bits = precision + 4
    for _ in range(64):
        num = log2_enclosure(x, bits)
        den = _log2_int(base, bits)
        result = num.div_positive(den)
        if result.width <= target:
            return result
        bits += max(8, bits // 2)
    raise InternalContractError("log enclosure failed to reach requested width")


def _integer_power_of(x: Fraction, base: int):
    """k with x == base**k, or None."""
    if x == 1:
        return 0
    value = x if x > 1 else 1 / x
    if value.denominator != 1:
        return None
    k = 0
    n = value.numerator
    while n % base == 0:
        n //= base
        k += 1
    if n != 1:
        return None
    return k if x > 1 else -k
