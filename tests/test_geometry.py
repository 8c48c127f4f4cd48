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
    balls_closures_intersect,
    format_rational,
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
    assert closed.contains(corner)
    assert not opened.contains(corner)
    assert RatBall(RatPoint.of(0, 0), Fraction(1), BallKind.OPEN).contains(RatPoint.of("1/3", "1/3"))


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


def test_grid_ball_requires_positive_resolution():
    with pytest.raises(ContractViolationError):
        GridBall(0, 0, 0)
