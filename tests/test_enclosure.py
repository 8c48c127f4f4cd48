import itertools
import math
import random
from decimal import Context
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from codeplane import enclosure
from codeplane.enclosure import log2_enclosure, log_enclosure
from codeplane.errors import ContractViolationError
from codeplane.geometry import RatInterval

positive_fractions = st.fractions(min_value="1/1000", max_value=1000, max_denominator=10**6)


def test_exact_for_powers_of_two():
    for k in (-5, -1, 0, 1, 3, 20):
        iv = log2_enclosure(Fraction(2) ** k, 40)
        assert iv.is_point and iv.lo == k


@given(positive_fractions, st.integers(min_value=4, max_value=60))
@settings(max_examples=150, deadline=None)
def test_log2_brackets_float_oracle(x, precision):
    iv = log2_enclosure(x, precision)
    assert iv.width <= Fraction(2) ** -precision
    # float logarithm as the independent oracle, with double-precision slack
    true = math.log2(x)
    assert float(iv.lo) - 1e-9 <= true <= float(iv.hi) + 1e-9


def test_log2_width_contract_tightens():
    x = Fraction(7, 5)
    w20 = log2_enclosure(x, 20).width
    w40 = log2_enclosure(x, 40).width
    assert w20 <= Fraction(2) ** -20
    assert w40 <= Fraction(2) ** -40
    assert w40 <= w20 / 2


def test_log2_near_power_of_two_stays_on_the_correct_side():
    x = Fraction(2**60 - 1, 2**59)  # just below 2
    iv = log2_enclosure(x, 80)
    assert iv.hi < 1
    iv = log2_enclosure(Fraction(2**60 + 1, 2**59), 80)  # just above 2
    assert iv.lo > 1


def test_log_enclosure_general_base():
    iv = log_enclosure(Fraction(20), 2, 50)
    assert iv.width <= Fraction(2) ** -50
    assert float(iv.lo) <= math.log2(20) <= float(iv.hi)
    iv = log_enclosure(Fraction(3, 4), 3, 40)
    true = math.log(0.75, 3)
    assert float(iv.lo) - 1e-9 <= true <= float(iv.hi) + 1e-9
    # base q applied to q - 1 = base itself
    assert log_enclosure(Fraction(9), 3, 30).is_point
    assert log_enclosure(Fraction(1, 36), 6, 30) == RatInterval.point(-2)
    assert not log_enclosure(Fraction(2, 3), 6, 30).is_point  # 2 * 3 == 6, but 2/3 is no power of 6


def test_rejects_bad_arguments():
    with pytest.raises(ContractViolationError):
        log2_enclosure(Fraction(0), 10)
    with pytest.raises(ContractViolationError):
        log2_enclosure(Fraction(-1), 10)
    with pytest.raises(ContractViolationError):
        log2_enclosure(Fraction(3), 0)
    with pytest.raises(ContractViolationError):
        log_enclosure(Fraction(3), 1, 10)


# --- differential reference: the repeated-squaring digit extractor ---------
# log2_enclosure used to extract the digits of log2 y by squaring y on two
# outward-rounded fixed-point tracks, retrying at a doubled scale whenever
# the tracks disagreed. Its results are the reference for the series.


def _reference_log2(x, precision):
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p & (p - 1) == 0 and q & (q - 1) == 0:
        return RatInterval.point(Fraction(p.bit_length() - q.bit_length()))
    t = p.bit_length() - q.bit_length()
    while x < Fraction(2) ** t:
        t -= 1
    while x >= Fraction(2) ** (t + 1):
        t += 1
    y = x / Fraction(2) ** t
    digits = precision + 2
    scale = 2 * digits + 16
    for _attempt in range(64):
        result = _reference_extract_digits(y, digits, scale, precision)
        if result is not None:
            num, nbits = result
            return RatInterval(Fraction(t) + Fraction(num, 1 << nbits),
                               Fraction(t) + Fraction(num + 1, 1 << nbits))
        scale *= 2
    raise AssertionError("reference extraction did not separate")


def _reference_extract_digits(y, digits, scale, precision):
    one = 1 << scale
    two = one << 1
    num, den = y.numerator, y.denominator
    shifted = num << scale
    y_lo = shifted // den
    y_hi = -((-shifted) // den)
    acc = 0
    for j in range(1, digits + 1):
        y_lo = (y_lo * y_lo) >> scale
        y_hi = -((-(y_hi * y_hi)) >> scale)
        if y_lo >= two and y_hi >= two:
            acc = (acc << 1) + 1
            y_lo >>= 1
            y_hi = -((-y_hi) >> 1)
        elif y_hi < two:
            acc <<= 1
        else:
            done = j - 1
            if done >= 1 and Fraction(4, 1 << done) <= Fraction(2) ** -precision:
                return (acc << 2, done + 2)
            return None
    return (acc, digits)


def _assert_matches_reference(x, precision):
    assert log2_enclosure(x, precision) == _reference_log2(x, precision), (x, precision)


@given(st.integers(min_value=1, max_value=2**80), st.integers(min_value=1, max_value=2**80),
       st.integers(min_value=1, max_value=600))
@settings(max_examples=200, deadline=None)
def test_log2_matches_squaring_reference(num, den, precision):
    _assert_matches_reference(Fraction(num, den), precision)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 52, 64, 100, 300])
def test_log2_matches_reference_next_to_one_and_two(k):
    tiny = Fraction(2) ** -k
    for x in (1 + tiny, 2 - tiny, (1 + tiny) / 8, (2 - tiny) * 1024):
        for precision in (1, 2, 30, 64, 200, 600):
            _assert_matches_reference(x, precision)


@pytest.mark.parametrize("bits", [300, 20_000])
def test_log2_matches_reference_on_wide_denominators(bits):
    rng = random.Random(bits)
    for _ in range(3):
        den = rng.getrandbits(bits) | 1 << (bits - 1)
        for num in (rng.getrandbits(bits) | 1, rng.randrange(1, 1000), den + 1, 2 * den - 1):
            for precision in (1, 30, 64, 512, 600):
                _assert_matches_reference(Fraction(num, den), precision)


def test_log2_matches_reference_at_every_precision():
    for x in (Fraction(3), Fraction(7, 5), Fraction(1, 15), Fraction(255, 128)):
        for precision in range(1, 601):
            _assert_matches_reference(x, precision)


@pytest.mark.parametrize("bits", [100, 600, 2000])
def test_log2_matches_reference_next_to_dyadic_logarithms(bits):
    # y = c / 2**bits just below and just above 2**(1/2) and 2**(3/4), so that
    # 2**J * log2 y lies within about 2**-bits of an integer for every J >= 2
    for c in (math.isqrt(2 << 2 * bits), math.isqrt(math.isqrt(8 << 4 * bits))):
        for x in (Fraction(c, 1 << bits), Fraction(c + 1, 1 << bits)):
            for precision in (1, 30, 64, 200):
                _assert_matches_reference(x, precision)


# --- the reduction by f = 2**i 3**j: each factor, each cut between two -------
# log2 y is summed as i + j + (atanh(s) + j atanh(1/5)) / atanh(1/3) with
# s = (y - f)/(y + f); these cases put s at and next to 0 on both sides, and y
# next to the cuts (neighbouring factors' geometric means), where the float
# compare that picks f may pick either neighbour.

_FACTORS = [Fraction(n, d) for n, d, _, _ in enclosure._FACTORS]
_PRECISIONS = (1, 2, 30, 64, 200, 600)


@pytest.mark.parametrize("f", _FACTORS, ids=str)
def test_log2_matches_reference_at_and_next_to_each_factor(f):
    cases = [f * Fraction(2) ** k for k in (-3, 0, 5)]
    cases += [f * (1 + sign * Fraction(1, 2**k)) for k in (3, 20, 60, 200) for sign in (-1, 1)]
    for x in cases:
        for precision in _PRECISIONS:
            _assert_matches_reference(x, precision)


@pytest.mark.parametrize("cut", range(len(_FACTORS) - 1))
def test_log2_matches_reference_next_to_each_cut(cut):
    r = _FACTORS[cut] * _FACTORS[cut + 1]
    c = math.isqrt((r.numerator << 120) // r.denominator)  # c <= 2**60 sqrt(r) < c + 1
    for x in (Fraction(c, 1 << 60), Fraction(c + 1, 1 << 60)):
        for precision in _PRECISIONS:
            _assert_matches_reference(x, precision)


@pytest.mark.parametrize("bits", [300, 20_000])
def test_log2_matches_reference_on_wide_arguments_next_to_each_factor(bits):
    for f in _FACTORS:
        for x in (f - Fraction(1, 1 << bits), f + Fraction(1, 1 << bits)):
            for precision in _PRECISIONS:
                _assert_matches_reference(x, precision)


@pytest.mark.parametrize("ends", list(itertools.product(("lo", "hi"), repeat=3)), ids="-".join)
def test_log2_stays_exact_under_looser_series_brackets(monkeypatch, ends):
    # The series brackets are a few units wide, too narrow for an end paired with
    # the wrong end, or a bracket left unnegated, to move D. Any valid brackets
    # must give the same D, at worst after a wider guard, so the brackets on
    # atanh(s), atanh(1/5) and atanh(1/3) each move one end out by 2**18 units,
    # about 0.7 of a J-bit step at the first guard.
    atanh = enclosure._atanh_scaled

    def loosened(a, b, w, end):
        lo, hi = atanh(a, b, w)
        return (lo - (1 << 18), hi) if end == "lo" else (lo, hi + (1 << 18))

    s_end, l5_end, ln2_end = ends
    monkeypatch.setattr(enclosure, "_atanh_scaled", lambda a, b, w: loosened(a, b, w, s_end))
    monkeypatch.setattr(enclosure, "_ln3_2_scaled", lambda w: loosened(1, 5, w, l5_end))
    monkeypatch.setattr(enclosure, "_ln2_scaled", lambda w: loosened(1, 3, w, ln2_end))
    for n in range(1001, 2000, 7):  # every factor's range, with s on both sides of 0
        for precision in (1, 30, 64):
            _assert_matches_reference(Fraction(n, 1000), precision)


@st.composite
def _atanh_arguments(draw):
    b = draw(st.integers(min_value=1, max_value=2**200))
    return draw(st.integers(min_value=0, max_value=b // 3)), b


@given(_atanh_arguments(), st.integers(min_value=1, max_value=700))
@example((1, 3), 700)
@example((0, 5), 3)
@example((1, 2**199), 289)
@settings(max_examples=200, deadline=None)
def test_atanh_series_brackets_the_true_value(ab, w):
    a, b = ab
    lo, hi = enclosure._atanh_scaled(a, b, w)
    # 2**w * atanh(a/b) = 2**(w-1) * ln((b+a)/(b-a)), with 40 decimal digits to
    # spare. For small s = a/b the quotient is 1 + 2s + ..., so ln loses about
    # log10(1/s) digits to cancellation, and lo can sit as close as 2**w * s**3
    # below the true value (s = 2**-199, w = 289: lo = 2**90 exactly), which
    # is 2 * log10(1/s) digits below its leading digit: give 3 * digits(b) more.
    ctx = Context(prec=int(w * 0.302) + 3 * len(str(b)) + 40)
    true = ctx.multiply(ctx.ln(ctx.divide(b + a, b - a)), ctx.power(2, w - 1))
    assert lo <= true <= hi


def _reference_log2_scaled(p, q, precision):
    """``enclosure._log2_scaled`` from the squaring reference."""
    iv = _reference_log2(Fraction(p, q), precision)
    scale = 1 << (precision + 2)
    lo, hi = iv.lo * scale, iv.hi * scale
    assert lo.denominator == hi.denominator == 1
    return lo.numerator, hi.numerator


@pytest.mark.parametrize("base", [3, 5, 7, 15, 16])
def test_log_enclosure_matches_reference(base, monkeypatch):
    cases = [(x, precision) for x in (Fraction(base - 1), Fraction(2, 7), Fraction(999, 1000),
                                      Fraction(base + 1, base), Fraction(base**5 + 1))
             for precision in (1, 30, 64, 136, 520)]
    got = [log_enclosure(x, base, precision) for x, precision in cases]
    monkeypatch.setattr(enclosure, "_log2_scaled", _reference_log2_scaled)
    enclosure._log2_int.cache_clear()  # so the cached log2(base) comes from the reference too
    try:
        assert got == [log_enclosure(x, base, precision) for x, precision in cases]
    finally:
        enclosure._log2_int.cache_clear()


# --- the integer quotient: sign rule against all four quotients ------------

def _reference_divide(a: RatInterval, b: RatInterval) -> RatInterval:
    """The quotient as all four quotients' min and max."""
    if b.lo <= 0:
        raise ContractViolationError("divisor interval must be strictly positive")
    candidates = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return RatInterval(min(candidates), max(candidates))


def _divide(a: RatInterval, b: RatInterval) -> RatInterval:
    """``enclosure._divide`` on rational ends brought over one denominator."""
    den = math.lcm(*(end.denominator for end in (a.lo, a.hi, b.lo, b.hi)))
    (lo_n, lo_d), (hi_n, hi_d) = enclosure._divide(*(int(end * den) for end in (a.lo, a.hi, b.lo, b.hi)))
    return RatInterval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def _intervals(ends):
    """Intervals with ends drawn from ``ends``, point intervals included."""
    return st.one_of(
        st.builds(RatInterval.point, ends),
        st.lists(ends, min_size=2, max_size=2).map(sorted).map(lambda e: RatInterval(*e)),
    )


_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=64)
_dividends = _intervals(st.one_of(st.just(Fraction(0)), _fractions))
_positive = st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64)


@given(_dividends, _intervals(_positive))
@example(RatInterval(Fraction(-1), Fraction(1)), RatInterval(Fraction(1, 2), Fraction(2)))
def test_divide_matches_the_four_quotient_form(a, b):
    assert _divide(a, b) == _reference_divide(a, b)


@given(_dividends, st.fractions(min_value=-2, max_value=0, max_denominator=64),
       st.fractions(min_value=0, max_value=2, max_denominator=64))
def test_divide_refuses_a_divisor_reaching_zero(a, lo, width):
    with pytest.raises(ContractViolationError):
        _divide(a, RatInterval(lo, lo + width))


# --- cached constants: each equals a fresh computation ---------------------

@given(st.integers(min_value=20, max_value=4096))
@example(20)
@example(4096)
@settings(max_examples=60, deadline=None)
def test_ln2_cache_equals_the_series(w):
    assert enclosure._ln2_scaled(w) == enclosure._atanh_scaled(1, 3, w)


@given(st.integers(min_value=20, max_value=4096))
@example(20)
@example(4096)
@settings(max_examples=60, deadline=None)
def test_ln3_2_cache_brackets_the_true_value(w):
    lo, hi = enclosure._ln3_2_scaled(w)
    assert (lo, hi) == enclosure._atanh_scaled(1, 5, w)
    # 2**w * atanh(1/5) = 2**(w-1) * ln(3/2), with 40 decimal digits to spare
    ctx = Context(prec=int(w * 0.302) + 40)
    assert lo <= ctx.multiply(ctx.ln(ctx.divide(3, 2)), ctx.power(2, w - 1)) <= hi


@pytest.mark.parametrize("bits", [1, 67, 519])
def test_log2_int_cache_equals_a_fresh_enclosure(bits):
    scale = 1 << (bits + 2)
    for base in range(2, 257):  # powers of two included, where the enclosure is a point
        lo, hi = enclosure._log2_int(base, bits)
        assert RatInterval(Fraction(lo, scale), Fraction(hi, scale)) == log2_enclosure(Fraction(base), bits)
    assert enclosure._log2_int(256, bits) == (8 * scale, 8 * scale)


def test_constant_caches_are_bounded():
    for cached in (enclosure._ln2_scaled, enclosure._ln3_2_scaled, enclosure._log2_int):
        maxsize = cached.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
