"""Certified two-sided logarithm enclosures over exact rationals.

``log2_enclosure`` reduces its argument to x = 2**t * y with y in [1, 2)
and returns [t + D/2**J, t + (D + 1)/2**J], where J = precision + 2 and
D = floor(2**J * log2 y) holds the first J binary digits of log2 y.
D comes from atanh series in fixed-point integers. y is first divided by
the nearest factor f = 2**i 3**j of 1, 9/8, 32/27, 4/3, 3/2, 27/16, 16/9, 2
(neighbours lie 9/8 or 256/243 apart, so |s| < 0.03 below: ten bits a term):

    ln(y/f) = 2 atanh(s),  s = (y - f)/(y + f),  ln 2 = 2 atanh(1/3),
    ln 3 = ln 2 + 2 atanh(1/5),  atanh(s) = sum over k of s**(2k+1) / (2k+1),

so log2 y = i + j + (atanh(s) + j atanh(1/5)) / atanh(1/3). atanh is odd:
for s < 0 the bracket of atanh(-s) is negated. The series are summed at
W = J + guard fractional bits with every step truncated down, which gives a
lower bound short by less than 3K + 3 units of 2**-W after K terms (derived
at ``_atanh_scaled``), and each end of the numerator is divided by the
ln 2 end its sign calls for. D is accepted when both ends of the resulting
bracket on log2 y floor to the same J-bit integer (Ziv's rounding test);
otherwise the guard doubles. log2 of a rational that is not a power of two
is irrational, so the test passes at some finite guard. An argument wider
than W bits is first bracketed between two W-bit dyadics, log being
monotone. Precision is requested in bits of enclosure width.

Downstream of D everything is integers: ``_log2_scaled`` gives the ends of
2**J log2(p/q), and ``log_pairs`` divides two of them taken at the same J,
so each end of log_base(p/q) is an exact (numerator, denominator) pair and
the wrappers build one ``Fraction`` per end.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache

from .errors import ContractViolationError, InternalContractError
from .geometry import RatInterval


Pair = tuple[int, int]

#: the factors f = 2**i 3**j as (numerator, denominator, i + j, j); _CUTS: neighbours' geometric means
_FACTORS = ((1, 1, 0, 0), (9, 8, -1, 2), (32, 27, 2, -3), (4, 3, 1, -1),
            (3, 2, 0, 1), (27, 16, -1, 3), (16, 9, 2, -2), (2, 1, 1, 0))
_CUTS = tuple((a * c / (b * d)) ** 0.5 for (a, b, _, _), (c, d, _, _) in zip(_FACTORS, _FACTORS[1:]))


def log2_enclosure(x: Fraction, precision: int) -> RatInterval:
    """Enclosure of log2(x) with width <= 2**-precision.

    Exact (zero-width) for powers of two. ``x`` must be positive.
    """
    x = Fraction(x)
    if x <= 0:
        raise ContractViolationError("log2 requires a positive argument")
    if precision < 1:
        raise ContractViolationError("precision must be a positive bit count")
    lo, hi = _log2_scaled(x.numerator, x.denominator, precision)
    scale = 1 << (precision + 2)
    return RatInterval(Fraction(lo, scale), Fraction(hi, scale))


def _log2_scaled(p: int, q: int, precision: int) -> Pair:
    """(lo, hi) with lo <= 2**J log2(p/q) <= hi, J = precision + 2, for p/q
    positive in lowest terms; lo == hi when p/q is a power of two."""
    digits = precision + 2
    if (p & (p - 1)) == 0 and (q & (q - 1)) == 0:
        exact = (p.bit_length() - q.bit_length()) << digits
        return exact, exact

    # argument reduction: x = 2**t * num/den with num/den in [1, 2)
    t = p.bit_length() - q.bit_length()
    num, den = (p, q << t) if t >= 0 else (p << -t, q)
    if num < den:
        t -= 1
        num <<= 1

    fn, fd, ij, j = _FACTORS[bisect(_CUTS, num / den)]
    guard = 20
    for _attempt in range(32):
        w = digits + guard
        if num.bit_length() > w:
            c = (num << w) // den  # num/den in [c, c + 1] / 2**w
            lo = _atanh_ratio(c, 1 << w, fn, fd, w)[0]
            hi = _atanh_ratio(c + 1, 1 << w, fn, fd, w)[1]
        else:
            lo, hi = _atanh_ratio(num, den, fn, fd, w)
        l5 = _ln3_2_scaled(w)  # + j atanh(1/5): for j < 0 its upper end bounds from below
        lo, hi = lo + j * l5[j < 0], hi + j * l5[j > 0]
        # each end is divided by the ln 2 end its sign calls for, as in _divide
        ln2_lo, ln2_hi = _ln2_scaled(w)
        d = (lo << digits) // (ln2_hi if lo >= 0 else ln2_lo)
        # y < 2, so D = (i + j) 2**J + d < 2**J even where the bracket reaches log2 2 = 1
        if d == min((hi << digits) // (ln2_lo if hi >= 0 else ln2_hi), ((1 - ij) << digits) - 1):
            d += (t + ij) << digits
            return d, d + 1
        guard *= 2
    raise InternalContractError("log2 series failed to separate from a dyadic")


def _atanh_ratio(n: int, d: int, fn: int, fd: int, w: int) -> Pair:
    """(lo, hi) bracketing 2**w atanh((y - f)/(y + f)), y = n/d and f = fn/fd in [1, 2]."""
    a, b = n * fd - d * fn, n * fd + d * fn
    if a >= 0:
        return _atanh_scaled(a, b, w)
    lo, hi = _atanh_scaled(-a, b, w)
    return -hi, -lo


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
def _ln3_2_scaled(w: int) -> tuple[int, int]:
    """``_atanh_scaled(1, 5, w)``, the ln(3/2) series, summed once per width."""
    return _atanh_scaled(1, 5, w)


@lru_cache(maxsize=256)
def _log2_int(base: int, bits: int) -> Pair:
    """``_log2_scaled(base, 1, bits)``, computed once per pair."""
    return _log2_scaled(base, 1, bits)


def log_enclosure(x: Fraction, base: int, precision: int) -> RatInterval:
    """Enclosure of log_base(x) with width <= 2**-precision, base >= 2.

    Exact (zero width) when x is an integer power of the base."""
    if base < 2:
        raise ContractViolationError("logarithm base must be >= 2")
    x = Fraction(x)
    if x <= 0:
        raise ContractViolationError("logarithm requires a positive argument")
    if precision < 1:
        raise ContractViolationError("precision must be a positive bit count")
    (lo_n, lo_d), (hi_n, hi_d) = log_pairs(x.numerator, x.denominator, base, precision)
    return RatInterval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def log_pairs(p: int, q: int, base: int, precision: int) -> tuple[Pair, Pair]:
    """Ends of log_base(p/q), width <= 2**-precision, as (numerator, denominator) pairs
    with positive denominators, p/q positive in lowest terms; both (k, 1) if p/q == base**k."""
    exact = _power_exponent(p, q, base)
    if exact is not None:
        return (exact, 1), (exact, 1)
    bits = precision + 4
    for _ in range(64):
        # both logarithms are scaled by 2**(bits + 2), which cancels
        lo, hi = _divide(*_log2_scaled(p, q, bits), *_log2_int(base, bits))
        if (hi[0] * lo[1] - lo[0] * hi[1]) << precision <= hi[1] * lo[1]:
            return lo, hi
        bits += max(8, bits // 2)
    raise InternalContractError("log enclosure failed to reach requested width")


def _divide(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[Pair, Pair]:
    """[a_lo, a_hi] / [b_lo, b_hi] for b_lo > 0 as two (numerator, denominator)
    pairs. Exact: each dividend end's sign picks its divisor end."""
    if b_lo <= 0:
        raise ContractViolationError("divisor interval must be strictly positive")
    return (a_lo, b_hi if a_lo >= 0 else b_lo), (a_hi, b_lo if a_hi >= 0 else b_hi)


def _power_exponent(p: int, q: int, base: int):
    """k with p/q == base**k for p/q in lowest terms, or None."""
    if min(p, q) != 1:
        return None
    n, k = max(p, q), 0
    while n % base == 0:
        n //= base
        k += 1
    return (k if q == 1 else -k) if n == 1 else None
