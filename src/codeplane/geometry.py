"""Exact rational points, max-metric balls, and grid squares.

Every coordinate in this module is a ``fractions.Fraction``; nothing here
rounds. The plane is drawn with the relative-distance axis (delta)
horizontal and the rate axis (R) vertical, so a "column" of the grid is a
delta-interval and a "row" is an R-interval.

The ambient space for ball enumeration is conceptually the enlarged square
[-1, 2]^2, but every algorithm operating on grids works inside [0, 1]^2,
and no grid square is extended past it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ContractViolationError

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ContractViolationError(f"not a rational value: {value!r}")


def format_rational(x: Fraction | int) -> str:
    """Serialize in lowest terms as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(k: int, n: int) -> str:
    """``format_rational(Fraction(k, n))`` for n >= 1, with one gcd and no Fraction."""
    g = math.gcd(k, n)
    return str(k // g) if g == n else f"{k // g}/{n // g}"


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ContractViolationError(f"interval endpoints out of order: {self}")

    @classmethod
    def point(cls, x: RationalLike) -> "RatInterval":
        x = as_rational(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def scale(self, c: RationalLike) -> "RatInterval":
        """Multiply by an exact rational constant (sign-aware)."""
        c = as_rational(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)


@dataclass(frozen=True)
class RatPoint:
    """Point of the (R, delta) plane. ``r`` is the rate coordinate."""

    r: Fraction
    delta: Fraction

    @classmethod
    def of(cls, r: RationalLike, delta: RationalLike) -> "RatPoint":
        return cls(as_rational(r), as_rational(delta))

    def in_unit_square(self) -> bool:
        return 0 <= self.r <= 1 and 0 <= self.delta <= 1


def max_distance(a: RatPoint, b: RatPoint) -> Fraction:
    """Chebyshev distance max(|r1-r2|, |delta1-delta2|), computed exactly."""
    return max(abs(a.r - b.r), abs(a.delta - b.delta))


class BallKind(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class RatBall:
    """Max-metric ball, i.e. an axis-aligned square, with rational data."""

    center: RatPoint
    radius: Fraction
    kind: BallKind = BallKind.CLOSED

    def __post_init__(self):
        if self.radius < 0:
            raise ContractViolationError("ball radius must be nonnegative")

    @property
    def r_interval(self) -> RatInterval:
        return RatInterval(self.center.r - self.radius, self.center.r + self.radius)

    @property
    def delta_interval(self) -> RatInterval:
        return RatInterval(self.center.delta - self.radius, self.center.delta + self.radius)

    def contains(self, p: RatPoint) -> bool:
        """Membership test; strict inequality for open balls, non-strict for closed."""
        d = max_distance(self.center, p)
        if self.kind is BallKind.OPEN:
            return d < self.radius
        return d <= self.radius


def balls_closures_intersect(a: RatBall, b: RatBall) -> bool:
    """Whether the closed squares overlap; touching along an edge or corner counts."""
    return a.r_interval.overlaps(b.r_interval) and a.delta_interval.overlaps(b.delta_interval)


@dataclass(frozen=True)
class SquareRuns:
    """Grid squares as column runs: each run (i, lo, hi) stands for the squares
    (i, lo) ... (i, hi - 1), and the runs ascend by column, so iterating yields
    the squares (i, j) in ascending order with no set, sort or per-square list."""

    runs: tuple[tuple[int, int, int], ...]

    def __iter__(self):
        return ((i, j) for i, lo, hi in self.runs for j in range(lo, hi))


@dataclass(frozen=True)
class GridBall:
    """Closed grid square [i/N,(i+1)/N] x [j/N,(j+1)/N] addressed by indices.

    ``i`` indexes the delta axis (column), ``j`` the R axis (row). Index
    arithmetic stands in for repeated rational normalization in the grid
    algorithms.
    """

    n_grid: int
    i: int
    j: int

    def __post_init__(self):
        if self.n_grid < 1:
            raise ContractViolationError("grid resolution must be >= 1")

    @property
    def delta_lo(self) -> Fraction:
        return Fraction(self.i, self.n_grid)

    @property
    def delta_hi(self) -> Fraction:
        return Fraction(self.i + 1, self.n_grid)

    @property
    def r_lo(self) -> Fraction:
        return Fraction(self.j, self.n_grid)

    @property
    def r_hi(self) -> Fraction:
        return Fraction(self.j + 1, self.n_grid)

    def to_ball(self, kind: BallKind = BallKind.CLOSED) -> RatBall:
        half = Fraction(1, 2 * self.n_grid)
        center = RatPoint(self.r_lo + half, self.delta_lo + half)
        return RatBall(center, half, kind)
