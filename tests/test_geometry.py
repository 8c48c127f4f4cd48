from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from codeplane.errors import ContractViolationError
from codeplane.geometry import (
    BallKind,
    GridBall,
    RatBall,
    RatInterval,
    RatPoint,
    ball_contains,
    balls_closures_intersect,
    format_rational,
    grid_balls,
    max_distance,
)

fractions = st.fractions(min_value=-2, max_value=2, max_denominator=64)
points = st.builds(RatPoint, fractions, fractions)


def test_max_distance_examples():
    assert max_distance(RatPoint.of(0, 0), RatPoint.of(0, 0)) == 0
    assert max_distance(RatPoint.of(0, 0), RatPoint.of("1/2", "1/3")) == Fraction(1, 2)
    assert max_distance(RatPoint.of("1/4", "3/4"), RatPoint.of("3/4", "1/4")) == Fraction(1, 2)


@given(points, points, points)
def test_max_distance_is_a_metric(a, b, c):
    assert max_distance(a, b) >= 0
    assert (max_distance(a, b) == 0) == (a == b)
    assert max_distance(a, b) == max_distance(b, a)
    assert max_distance(a, c) <= max_distance(a, b) + max_distance(b, c)


def test_ball_contains_open_vs_closed():
    closed = RatBall(RatPoint.of("1/2", "1/2"), Fraction(1, 2), BallKind.CLOSED)
    opened = RatBall(RatPoint.of("1/2", "1/2"), Fraction(1, 2), BallKind.OPEN)
    corner = RatPoint.of(0, 0)
    assert ball_contains(closed, corner)
    assert not ball_contains(opened, corner)
    assert ball_contains(RatBall(RatPoint.of(0, 0), Fraction(1), BallKind.OPEN),
                         RatPoint.of("1/3", "1/3"))


def test_closure_intersection_edge_touch_counts():
    a = GridBall(2, 0, 0).to_ball()
    b = GridBall(2, 1, 0).to_ball()  # shares the edge delta = 1/2
    assert balls_closures_intersect(a, b)
    far = RatBall(RatPoint.of(0, 0), Fraction(1, 16))
    farther = RatBall(RatPoint.of(0, "1/4"), Fraction(1, 16))  # gap of 1/8
    assert not balls_closures_intersect(far, farther)
    nested = RatBall(RatPoint.of("1/2", "1/2"), Fraction(1, 8))
    outer = RatBall(RatPoint.of("1/2", "1/2"), Fraction(1, 2))
    assert balls_closures_intersect(nested, outer)


def test_grid_balls_counts_and_indexing():
    assert len(grid_balls(1)) == 1
    assert len(grid_balls(2)) == 4
    balls = grid_balls(4)
    assert len(balls) == 16
    target = GridBall(4, 0, 3)
    assert target in balls
    assert target.delta_lo == 0 and target.delta_hi == Fraction(1, 4)
    assert target.r_lo == Fraction(3, 4) and target.r_hi == 1


def test_grid_balls_cover_and_touch():
    for n in (1, 2, 3, 5):
        balls = grid_balls(n)
        # row-major and deterministic
        assert balls == grid_balls(n)
        # covers the corners and center
        for p in (RatPoint.of(0, 0), RatPoint.of(1, 1), RatPoint.of("1/2", "1/2")):
            assert any(b.contains_point(p) for b in balls)
        # horizontally adjacent closures intersect exactly along the shared edge
        for b in balls:
            if b.i + 1 < n:
                nxt = GridBall(n, b.i + 1, b.j)
                assert balls_closures_intersect(b.to_ball(), nxt.to_ball())
                assert b.delta_hi == nxt.delta_lo


@given(fractions, fractions)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    assert format_rational(a) == format_rational(Fraction(a))


def test_format_rational():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_interval_contracts():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    with pytest.raises(ContractViolationError):
        RatInterval(Fraction(1), Fraction(0))
    assert (iv + RatInterval.point(1)).lo == Fraction(4, 3)
    assert iv.scale(-2) == RatInterval(Fraction(-1), Fraction(-2, 3))
    quot = RatInterval(Fraction(-1), Fraction(1)).div_positive(RatInterval(Fraction(1, 2), Fraction(2)))
    assert quot == RatInterval(Fraction(-2), Fraction(2))


def _reference_div_positive(a: RatInterval, b: RatInterval) -> RatInterval:
    """div_positive as it formed all four quotients and took their min and max."""
    if b.lo <= 0:
        raise ContractViolationError("divisor interval must be strictly positive")
    candidates = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return RatInterval(min(candidates), max(candidates))


def _intervals(ends):
    """Intervals with ends drawn from ``ends``, point intervals included."""
    return st.one_of(
        st.builds(RatInterval.point, ends),
        st.lists(ends, min_size=2, max_size=2).map(sorted).map(lambda e: RatInterval(*e)),
    )


_dividends = _intervals(st.one_of(st.just(Fraction(0)), fractions))
_positive = st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64)


@given(_dividends, _intervals(_positive))
def test_div_positive_matches_the_four_quotient_form(a, b):
    assert a.div_positive(b) == _reference_div_positive(a, b)


@given(_dividends, st.fractions(min_value=-2, max_value=0, max_denominator=64),
       st.fractions(min_value=0, max_value=2, max_denominator=64))
def test_div_positive_refuses_a_divisor_reaching_zero(a, lo, width):
    with pytest.raises(ContractViolationError):
        a.div_positive(RatInterval(lo, lo + width))


def test_grid_ball_requires_positive_resolution():
    with pytest.raises(ContractViolationError):
        GridBall(0, 0, 0)
    with pytest.raises(ContractViolationError):
        grid_balls(0)
