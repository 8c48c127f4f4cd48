import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codeplane import bounds
from codeplane.bounds import (
    PolylineCurve,
    constant_curve,
    diagonal_curve,
    entropy,
    gv_lower_curve,
    hamming_curve,
    named_curve,
    singleton_curve,
    upper_bracket_curve,
    vg_bound_curve,
    vg_curve,
)
from codeplane.enclosure import log2_enclosure, log_enclosure
from codeplane.errors import ContractViolationError
from codeplane.geometry import RatInterval, RatPoint


def _entropy_oracle(q, x):
    """Independent float evaluation of the q-ary entropy."""
    if x in (0, 1):
        return 0.0 if q == 2 and x == 1 else (0.0 if x == 0 else math.log(q - 1, q))
    x = float(x)
    value = x * math.log(q - 1, q) if q > 2 else 0.0
    return value - x * math.log(x, q) - (1 - x) * math.log(1 - x, q)


def test_entropy_exact_points():
    assert entropy(2, Fraction(0), 20).is_point
    assert entropy(2, Fraction(0), 20).lo == 0
    assert entropy(2, Fraction(1, 2), 20).is_point
    assert entropy(2, Fraction(1, 2), 20).lo == 1
    assert entropy(2, Fraction(1), 20) == RatInterval.point(0)
    for q in (2, 3, 4, 5):
        at_edge = entropy(q, Fraction(q - 1, q), 20)
        assert at_edge.is_point and at_edge.lo == 1


@pytest.mark.parametrize("q", range(3, 17))
def test_alpha_cache_equals_a_fresh_enclosure(q):
    for bits in (1, 67, 135, 519):
        (lo_n, lo_d), (hi_n, hi_d) = bounds._alpha(q, bits)
        fresh = _reference_log_enclosure(Fraction(q - 1), q, bits)
        assert (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)) == (fresh.lo, fresh.hi)
    assert entropy(q, Fraction(1), 67) == log_enclosure(Fraction(q - 1), q, 67)
    maxsize = bounds._alpha.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


# --- differential reference: entropy over Fraction intervals ---------------
# log_enclosure and entropy as they were before both moved to integer pairs,
# with RatInterval.div_positive's sign rule inlined and no constant caches.
# Every end the integer path returns must equal the reference's as a rational.

def _reference_integer_power_of(x: Fraction, base: int):
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


def _reference_log_enclosure(x: Fraction, base: int, precision: int) -> RatInterval:
    exact = _reference_integer_power_of(x, base)
    if exact is not None:
        return RatInterval.point(Fraction(exact))
    target = Fraction(2) ** -precision
    bits = precision + 4
    for _ in range(64):
        num = log2_enclosure(x, bits)
        den = log2_enclosure(Fraction(base), bits)
        lo = num.lo / (den.hi if num.lo >= 0 else den.lo)
        hi = num.hi / (den.lo if num.hi >= 0 else den.hi)
        result = RatInterval(lo, hi)
        if result.width <= target:
            return result
        bits += max(8, bits // 2)
    raise AssertionError("reference log enclosure failed to reach requested width")


def _reference_entropy(q: int, delta: Fraction, precision: int) -> RatInterval:
    if delta == 0:
        return RatInterval.point(Fraction(0))
    if delta == 1:
        return _reference_log_enclosure(Fraction(q - 1), q, precision)
    if delta == Fraction(q - 1, q):
        return RatInterval.point(Fraction(1))
    target = Fraction(2) ** -precision
    bits = precision + 3
    while True:
        alpha = _reference_log_enclosure(Fraction(q - 1), q, bits)
        log_d = _reference_log_enclosure(delta, q, bits)
        log_1d = _reference_log_enclosure(1 - delta, q, bits)
        value = alpha.scale(delta) + (-log_d.scale(delta)) + (-log_1d.scale(1 - delta))
        if value.width <= target:
            return value
        bits += max(8, bits // 2)


def _assert_entropy_matches_reference(q, delta, precision):
    got, want = entropy(q, delta, precision), _reference_entropy(q, delta, precision)
    assert (got.lo, got.hi) == (want.lo, want.hi), (q, delta, precision)
    assert got.width <= Fraction(2) ** -precision
    if delta < Fraction(q - 1, q):
        # the curves built on H: (1 - H)/2, 1 - H, and 1 - H(2 delta) when 2 delta <= 1
        one_minus = RatInterval.point(1) - _reference_entropy(q, delta, precision + 1)
        assert vg_curve(q, delta, precision) == one_minus.scale(Fraction(1, 2))
        assert gv_lower_curve(q).eval(delta, precision) == one_minus
        if 2 * delta <= 1:
            assert hamming_curve(q).eval(2 * delta, precision) == one_minus


_SWEEP_Q = (2, 3, 4, 5, 7, 8, 16)


def _sweep_deltas(q):
    """Exact points, and points near 0, near (q - 1)/q and near 1."""
    edge = Fraction(q - 1, q)
    deltas = {Fraction(0), Fraction(1), edge, Fraction(1, 2), Fraction(1, q), Fraction(1, q**3),
              Fraction(q - 1, q**2), Fraction(3, 7)}
    for k in (1, 8, 40, 200):
        tiny = Fraction(1, 2**k + 1)
        deltas |= {tiny, edge - tiny, edge + tiny * (1 - edge), 1 - tiny}
    return sorted(deltas)


@pytest.mark.parametrize("q", _SWEEP_Q)
def test_entropy_matches_the_fraction_reference(q):
    for delta in _sweep_deltas(q):
        for precision in (1, 2, 30, 64, 200, 600):
            _assert_entropy_matches_reference(q, delta, precision)


@st.composite
def _unit_fractions(draw):
    b = draw(st.integers(min_value=1, max_value=2**64))
    return Fraction(draw(st.integers(min_value=0, max_value=b)), b)


@given(st.integers(2, 16), _unit_fractions(), st.integers(1, 600))
@settings(max_examples=80, deadline=None)
def test_entropy_matches_the_fraction_reference_anywhere(q, delta, precision):
    _assert_entropy_matches_reference(q, delta, precision)


def test_entropy_derived_value():
    iv = entropy(2, Fraction(1, 4), 40)
    # frozen from the independent oracle: H_2(1/4) = 0.8112781244591328...
    assert iv.lo <= Fraction("0.8112781244591328") <= iv.hi
    assert iv.width <= Fraction(1, 2 ** 40)


@given(st.integers(2, 4), st.fractions(min_value=0, max_value=1, max_denominator=64),
       st.integers(8, 40))
@settings(max_examples=60, deadline=None)
def test_entropy_brackets_oracle_everywhere(q, delta, precision):
    iv = entropy(q, delta, precision)
    oracle = _entropy_oracle(q, delta)
    assert float(iv.lo) - 1e-9 <= oracle <= float(iv.hi) + 1e-9
    assert iv.width <= Fraction(1, 2 ** precision)


def test_entropy_concavity_sampled():
    # H(midpoint) >= average of endpoints, up to enclosure slack
    for q in (2, 3):
        for i in range(1, 16):
            a = Fraction(i, 32)
            b = Fraction(i + 8, 32)
            mid = (a + b) / 2
            ha = entropy(q, a, 30)
            hb = entropy(q, b, 30)
            hm = entropy(q, mid, 30)
            slack = Fraction(1, 2 ** 27)
            assert hm.hi + slack >= (ha.lo + hb.lo) / 2


def test_vg_endpoints_exact():
    assert vg_curve(2, Fraction(0), 20).is_point
    assert vg_curve(2, Fraction(0), 20).lo == Fraction(1, 2)
    for q in (2, 3, 4):
        edge = Fraction(q - 1, q)
        iv = vg_curve(q, edge, 20)
        assert iv.is_point and iv.lo == 0
    assert vg_curve(2, Fraction(1, 2), 20).lo == 0


def test_vg_derived_value():
    iv = vg_curve(2, Fraction(1, 4), 40)
    oracle = (1 - 0.8112781244591328) / 2  # 0.0943609377704336
    assert float(iv.lo) - 1e-10 <= oracle <= float(iv.hi) + 1e-10


def test_vg_rejects_outside_domain():
    with pytest.raises(ContractViolationError):
        vg_curve(2, Fraction(3, 4), 20)


def test_vg_monotone_on_grid():
    curve = vg_bound_curve(2)
    prev = None
    for i in range(0, 65):
        delta = Fraction(i, 64)
        iv = curve.eval(delta, 30)
        if prev is not None:
            # enclosures of a non-increasing curve never force an increase
            assert iv.lo <= prev.hi
        prev = iv


def test_bracket_curves_order_and_endpoints():
    for q in (2, 3, 4):
        lower, upper = gv_lower_curve(q), upper_bracket_curve(q)
        assert lower.eval(Fraction(0), 20).lo == 1
        assert upper.eval(Fraction(0), 20).lo == 1
        edge = Fraction(q - 1, q)
        assert lower.eval(edge, 20).hi == 0
        assert upper.eval(edge, 20).hi == 0
        for i in range(1024):  # full 1024-point grid over [0, 1]
            delta = Fraction(i, 1023)
            lo = lower.eval(delta, 12)
            hi = upper.eval(delta, 12)
            assert lo.lo <= hi.hi + Fraction(1, 2 ** 10)


def test_bracket_at_quarter():
    lower, upper = gv_lower_curve(2), upper_bracket_curve(2)
    up = upper.eval(Fraction(1, 4), 30)
    assert up.is_point and up.lo == Fraction(3, 4)
    lo = lower.eval(Fraction(1, 4), 30)
    assert abs(float(lo.lo) - 0.18872187554086717) < 1e-8


def test_precision_contract_halving():
    import random

    rng = random.Random(3)
    curve = vg_bound_curve(3)
    for _ in range(20):
        delta = Fraction(rng.randrange(1, 64), 64) * Fraction(2, 3)
        w1 = curve.eval(delta, 16).width
        w2 = curve.eval(delta, 32).width
        assert w2 <= w1 / 2 or w1 == 0


def test_hamming_curve_above_gv_lower():
    lower = gv_lower_curve(2)
    ham = hamming_curve(2)
    for i in range(0, 33):
        delta = Fraction(i, 64)
        assert ham.eval(delta, 25).hi >= lower.eval(delta, 25).lo


def test_polyline_exact_values_and_validation():
    diag = diagonal_curve()
    assert diag.value_exact(Fraction(1, 3)) == Fraction(2, 3)
    assert diag.eval(Fraction(1, 4), 10).is_point
    const = constant_curve(Fraction(1, 2))
    assert const.value_exact(Fraction(7, 8)) == Fraction(1, 2)
    with pytest.raises(ContractViolationError):
        PolylineCurve([RatPoint.of(1, 0)])
    with pytest.raises(ContractViolationError):
        PolylineCurve([RatPoint.of(0, 0), RatPoint.of(1, 1)])
    with pytest.raises(ContractViolationError):
        PolylineCurve([RatPoint.of(1, 0), RatPoint.of(1, 0)])


def _segment_square_oracle(i, j, n):
    """Line R = 1 - delta versus closed square, by corner signs."""
    corners = [
        (Fraction(i, n), Fraction(j, n)),
        (Fraction(i + 1, n), Fraction(j, n)),
        (Fraction(i, n), Fraction(j + 1, n)),
        (Fraction(i + 1, n), Fraction(j + 1, n)),
    ]
    signs = [x + y - 1 for x, y in corners]
    return min(signs) <= 0 <= max(signs)


def test_diagonal_hits_exactly_the_expected_squares():
    diag = diagonal_curve()
    hits = set()
    for i in range(4):
        for j in range(4):
            a = Fraction(i, 4)
            b = Fraction(i + 1, 4)
            intersects = diag.value_exact(a) >= Fraction(j, 4) and diag.value_exact(b) <= Fraction(j + 1, 4)
            assert intersects == _segment_square_oracle(i, j, 4)
            if intersects:
                hits.add((i, j))
    assert hits == {(i, j) for i in range(4) for j in range(4) if i + j in (2, 3, 4)}
    assert len(hits) == 10


def test_constant_curve_row_intersections():
    const = constant_curve(Fraction(1, 2))
    for i in range(2):
        for j in range(2):
            # every N=2 square's closed R-interval contains 1/2
            assert Fraction(j, 2) <= Fraction(1, 2) <= Fraction(j + 1, 2)
            assert const.value_exact(Fraction(i, 2)) == Fraction(1, 2)


def test_named_curve_registry():
    assert named_curve("vg", 2).name == "vg_q2"
    assert named_curve("synthetic:diag", 2).value_exact(Fraction(1, 2)) == Fraction(1, 2)
    custom = named_curve("synthetic:0,1;1/2,1/2;1,0", 2)
    assert isinstance(custom, PolylineCurve)
    assert custom.value_exact(Fraction(1, 4)) == Fraction(3, 4)
    with pytest.raises(ContractViolationError):
        named_curve("nonesuch", 2)


def test_upper_bracket_discontinuous_flag():
    curve = upper_bracket_curve(2)
    assert not curve.continuous
    assert singleton_curve().continuous


# --- work pin: the eight bounds commands whose bytes test_cli pins ----------
# (BOUNDS_CSV_SHA256), each from cold constant caches. They take 96 H_q
# evaluations, 178 _log2_scaled calls and 4,763 series terms; before one H_q
# memo served all curves of a command and the logarithm divided by 2**i 3**j,
# 200, 334 and 21,253.

def _series_terms(a, b, w):
    """Terms ``enclosure._atanh_scaled(a, b, w)`` sums: one per nonzero power."""
    a2, b2, power, terms = a * a, b * b, (a << w) // b, 0
    while power:
        power, terms = power * a2 // b2, terms + 1
    return terms


def test_bounds_series_work_stays_within_its_counts(tmp_path, monkeypatch):
    from codeplane import enclosure
    from codeplane.cli import EXIT_OK, main

    evaluated, counts = [], {"log2": 0, "terms": 0}
    entropy_pairs, log2_scaled, atanh_scaled = bounds._entropy_pairs, enclosure._log2_scaled, enclosure._atanh_scaled

    def counted_entropy(q, a, b, precision):
        evaluated[-1].append((q, a, b, precision))
        return entropy_pairs(q, a, b, precision)

    def counted_log2(p, q, precision):
        counts["log2"] += 1
        return log2_scaled(p, q, precision)

    def counted_atanh(a, b, w):
        counts["terms"] += _series_terms(a, b, w)
        return atanh_scaled(a, b, w)

    monkeypatch.setattr(bounds, "_entropy_pairs", counted_entropy)
    monkeypatch.setattr(enclosure, "_log2_scaled", counted_log2)
    monkeypatch.setattr(enclosure, "_atanh_scaled", counted_atanh)
    monkeypatch.chdir(tmp_path)
    for q in (2, 3, 5, 16):
        for precision in (64, 512):
            evaluated.append([])
            for cache in (enclosure._ln2_scaled, enclosure._ln3_2_scaled, enclosure._log2_int, bounds._alpha):
                cache.cache_clear()  # each command pays for every constant it needs
            assert main(["bounds", "--q", str(q), "--curves", "vg,gv_lower,hamming", "--grid", "9",
                         "--precision", str(precision), "--out", "."]) == EXIT_OK
    assert all(len(set(keys)) == len(keys) for keys in evaluated)  # no point twice in one command
    assert sum(map(len, evaluated)) <= 96
    assert counts["log2"] <= 178
    assert counts["terms"] <= 4_763
