"""Pixel-grid algorithms for closed planar sets presented by ball provers.

Two kinds of closed sets are handled, both derived from a continuous
non-increasing curve f on [0, 1]:

* the graph {(delta, f(delta))}, approximated by the N-strip of grid
  squares meeting it, with its two boundary staircases; and
* the monotone domain U = {(R, delta) : R <= f(delta)}, approximated from
  two sides with an exceptional staircase of undecided squares between.

For a continuous non-increasing f the geometric predicates reduce to
endpoint evaluations, which is what makes certified interval evaluation
sufficient:

    closed square meets graph  <=>  f(x0) >= y0  and  f(x1) <= y1
    closed square meets U      <=>  f(x0) >= y0
    open   square meets U      <=>  f(x0) >  y0

(x0/x1 the square's delta range clipped to the curve span, y0/y1 its rate
range). Exact curves (polylines) decide every predicate outright; interval
curves leave the genuinely boundary-touching squares undecided at every
precision, which is precisely the exceptional set the theory expects.

Every verdict on a square depends only on its own column's enclosures (f at
the column's two clipped ends for the graph, f(i/N) for the domain), so
"wait until stabilization" is realized column by column: each column walks
the precision ladder (base, doubling, clipped to the cap), evaluating the
curve once per column end per rung, until all of its rows are decided.
Within a column each verdict is monotone in the row index j, so a rung
turns the column's enclosures into at most four integer row thresholds
(exact floors and ceilings of N times an endpoint) and decides whole row
ranges at once; only the ranges still undecided are walked to the next
rung. A strip stores only these column ranges and its capped squares, a
two-sided approximation only each column's band of undecided rows; cells,
staircases and end segments are derived from them, so no N x N table and
no per-square object is built. A square still undecided at the cap is
treated as meeting the set (conservative: strips may widen, never falsely
thin). The amendment pass of the two-sided approximation compares
neighbouring bands, since two closed grid squares meet iff their column
and row indices each differ by at most one.
Presentations over general rational balls enumerate a canonical dovetailed
ball sequence so soundness examples can be exercised directly; they share
one stage loop (``_StagedEnumeration.advance``) and differ only in the
per-ball test that decides whether a ball is emitted.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bounds import BoundCurve
from .errors import (
    ContractViolationError,
    InternalContractError,
    StabilizationTimeoutError,
)
from .geometry import BallKind, GridBall, RatBall, RatInterval, RatPoint, vertex_list
from .geometry import balls_closures_intersect  # unused here; perfbench/tracing.py binds this name

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_BASE_PRECISION = 12
DEFAULT_PRECISION_CAP = 96


class Decision(enum.Enum):
    INTERSECTS = "intersects"
    DISJOINT = "disjoint"
    UNKNOWN = "unknown"


def _require_usable(curve: BoundCurve):
    if not curve.continuous:
        raise ContractViolationError(
            f"curve {curve.name!r} is not continuous; grid deciders need the IVP"
        )


class GraphBallDecider:
    """Decides closed-rectangle intersection with the graph of a curve."""

    def __init__(self, curve: BoundCurve):
        _require_usable(curve)
        self.curve = curve

    def decide(self, d_lo: Fraction, d_hi: Fraction, r_lo: Fraction, r_hi: Fraction,
               precision: int) -> Decision:
        return self.verdict(self.ends(d_lo, d_hi, precision), r_lo, r_hi)

    def ends(self, d_lo: Fraction, d_hi: Fraction, precision: int) -> Optional[tuple[RatInterval, RatInterval]]:
        """Enclosures of f at [d_lo, d_hi] clipped to the curve span; None if they miss."""
        span = self.curve.span
        a = max(d_lo, span[0])
        b = min(d_hi, span[1])
        if a > b:
            return None
        return self.curve.eval(a, precision), self.curve.eval(b, precision)

    @staticmethod
    def verdict(ends: Optional[tuple[RatInterval, RatInterval]], r_lo: Fraction, r_hi: Fraction) -> Decision:
        """Closed rectangle vs graph: intersects iff f(a) >= r_lo and f(b) <= r_hi."""
        if ends is None:
            return Decision.DISJOINT
        fa, fb = ends
        if fa.lo >= r_lo and fb.hi <= r_hi:
            return Decision.INTERSECTS
        if fa.hi < r_lo or fb.lo > r_hi:
            return Decision.DISJOINT
        return Decision.UNKNOWN

    def decide_ball(self, ball: GridBall, precision: int) -> Decision:
        return self.decide(ball.delta_lo, ball.delta_hi, ball.r_lo, ball.r_hi, precision)


class DomainBallDecider:
    """Decides grid squares against the monotone domain U = {R <= f(delta)}.

    The curve must evaluate on all of [0, 1] (polylines must span it)."""

    def __init__(self, curve: BoundCurve):
        _require_usable(curve)
        if curve.span[0] > ZERO or curve.span[1] < ONE:
            raise ContractViolationError(
                "domain decisions need a curve spanning [0, 1]"
            )
        self.curve = curve

    def decide_closed(self, ball: GridBall, precision: int) -> Decision:
        return self.closed_verdict(self.curve.eval(ball.delta_lo, precision), ball.r_lo)

    def decide_open(self, ball: GridBall, precision: int) -> Decision:
        return self.open_verdict(self.curve.eval(ball.delta_lo, precision), ball.r_lo)

    @staticmethod
    def closed_verdict(fa: RatInterval, y0: Fraction) -> Decision:
        """Closed square vs U: intersects iff f(x0) >= y0."""
        if fa.lo >= y0:
            return Decision.INTERSECTS
        if fa.hi < y0:
            return Decision.DISJOINT
        return Decision.UNKNOWN

    @staticmethod
    def open_verdict(fa: RatInterval, y0: Fraction) -> Decision:
        """Open square vs U: intersects iff f(x0) > y0."""
        if fa.lo > y0:
            return Decision.INTERSECTS
        if fa.hi <= y0:
            return Decision.DISJOINT
        return Decision.UNKNOWN


Segment = tuple[int, int, tuple[Decision, ...]]  # rows lo..hi inclusive, their verdicts


def _floor_times(x: Fraction, n: int) -> int:
    """Exact floor(n * x)."""
    return (x.numerator * n) // x.denominator


def _ceil_times(x: Fraction, n: int) -> int:
    """Exact ceil(n * x)."""
    return -((-x.numerator * n) // x.denominator)


def _row_pieces(n_grid: int, starts: Iterable[int], verdicts: Callable[[int], tuple]) -> list[Segment]:
    """Split rows 0..N-1 at ``starts`` and decide each piece at its first row.

    Each start is the first row at which one of the verdict's comparisons
    against the row edges flips. Those comparisons are monotone in the row
    index, so the verdicts are constant between consecutive starts.
    """
    cuts = sorted({0, *(s for s in starts if 0 < s < n_grid)})
    return [(lo, hi - 1, verdicts(lo)) for lo, hi in zip(cuts, cuts[1:] + [n_grid])]


def _sweep_columns(n_grid: int, column_pieces: Callable[[int, int], list[Segment]],
                   deadline: Optional[float], base_precision: int, precision_cap: int,
                   what: str) -> list[list[Segment]]:
    """Walk each column up the precision ladder until its rows are decided.

    ``column_pieces(i, precision)`` evaluates the curve for column i once and
    turns the enclosures into integer row thresholds, floors and ceilings of
    N times an endpoint, at which the verdicts change; it returns the rows
    0..N-1 as ranges with one verdict tuple each. Only the ranges still
    UNKNOWN are walked to the next rung, where each takes its whole verdict
    tuple from the new enclosures (enclosures at different rungs need not be
    nested), so a row keeps the verdicts of the rung that decided it. UNKNOWN
    left in a range's tuple means it was still undecided at the cap.

    Returns, per column, its row ranges sorted by row. On timeout the
    StabilizationTimeoutError carries the columns finished so far.
    """
    if n_grid < 1:
        raise ContractViolationError("grid resolution must be >= 1")
    columns: list[list[Segment]] = []
    for i in range(n_grid):
        decided: list[Segment] = []
        pending: list[Segment] = [(0, n_grid - 1, (Decision.UNKNOWN,))]
        precision = base_precision
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise StabilizationTimeoutError(f"{what} timed out", partial=columns)
            fresh = column_pieces(i, precision)
            walked = [(max(lo, f_lo), min(hi, f_hi), verdicts)
                      for lo, hi, _ in pending for f_lo, f_hi, verdicts in fresh
                      if max(lo, f_lo) <= min(hi, f_hi)]
            decided += [seg for seg in walked if Decision.UNKNOWN not in seg[2]]
            pending = [seg for seg in walked if Decision.UNKNOWN in seg[2]]
            if not pending or precision >= precision_cap:
                break
            precision = min(precision_cap, precision * 2)
        columns.append(sorted(decided + pending))
    return columns


# --- canonical enumeration of rational balls -------------------------------


def _unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = z - t
    return w - b, b


def _calkin_wilf(index: int) -> Fraction:
    """index-th positive rational (1-based) along the Calkin-Wilf tree."""
    if index < 1:
        raise ContractViolationError("Calkin-Wilf index is 1-based")
    num, den = 1, 1
    bits = bin(index)[3:]  # path below the root
    for bit in bits:
        if bit == "0":
            den = num + den
        else:
            num = num + den
    return Fraction(num, den)


def _signed_rational(index: int) -> Fraction:
    if index == 0:
        return ZERO
    half, odd = divmod(index + 1, 2)
    value = _calkin_wilf(half)
    return value if odd else -value


def canonical_ball(index: int) -> RatBall:
    """Deterministic enumeration covering every open rational ball."""
    z1, radius_idx = _unpair(index)
    delta_idx, r_idx = _unpair(z1)
    center = RatPoint(r=_signed_rational(r_idx), delta=_signed_rational(delta_idx))
    return RatBall(center, _calkin_wilf(radius_idx + 1), BallKind.OPEN)


# --- presentations ---------------------------------------------------------


class _StagedEnumeration:
    """The stage loop shared by the ball presentations: deterministic stages.

    Stage s tests the first s canonical balls at precision
    min(DEFAULT_PRECISION_CAP, base + 4s) with the presentation's per-ball
    ``_emits``, and emits each ball it accepts the first time it does.
    """

    def __init__(self, base_precision: int = DEFAULT_BASE_PRECISION):
        self.base_precision = base_precision
        self._stage = 0
        self._emitted: list[RatBall] = []
        self._emitted_set: set[RatBall] = set()

    @property
    def progress(self) -> int:
        return self._stage

    @property
    def emitted(self) -> tuple:
        return tuple(self._emitted)

    def advance(self, stages: int) -> list:
        """Run the dovetail for ``stages`` rounds; return newly emitted balls."""
        fresh: list[RatBall] = []
        for _ in range(stages):
            self._stage += 1
            precision = min(DEFAULT_PRECISION_CAP, self.base_precision + 4 * self._stage)
            for idx in range(self._stage):
                ball = canonical_ball(idx)
                if self._emits(ball, precision) and ball not in self._emitted_set:
                    self._emitted_set.add(ball)
                    self._emitted.append(ball)
                    fresh.append(ball)
        return fresh

    def _emits(self, ball: RatBall, precision: int) -> bool:
        """Whether ``ball`` is proven at the current stage (``progress``)."""
        raise NotImplementedError


class DensePointPresentation(_StagedEnumeration):
    """Sound ball enumerator for the closure of a restartable point stream.

    At stage s, a ball is emitted once it contains one of the first s
    streamed points, which certifies it meets the closure of the stream's
    range.
    """

    kind = "re"

    def __init__(self, stream_factory: Callable[[], Iterator[RatPoint]]):
        super().__init__()
        self._factory = stream_factory
        self._iter: Optional[Iterator[RatPoint]] = None
        self._points: list[RatPoint] = []

    def _emits(self, ball: RatBall, precision: int) -> bool:
        if self._iter is None:
            self._iter = self._factory()
        # streamed points up to the stage number, fewer once the stream ends
        self._points += itertools.islice(self._iter, self._stage - len(self._points))
        return any(ball.contains(p) for p in self._points)


def re_from_dense_points(stream_factory: Callable[[], Iterator[RatPoint]]) -> DensePointPresentation:
    return DensePointPresentation(stream_factory)


class CurveGraphCoPresentation(_StagedEnumeration):
    """Enumerates open rational balls whose closures provably miss the graph."""

    kind = "co"

    def __init__(self, curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION):
        super().__init__(base_precision)
        self.decider = GraphBallDecider(curve)

    def _emits(self, ball: RatBall, precision: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        return self.decider.decide(d_iv.lo, d_iv.hi, r_iv.lo, r_iv.hi, precision) is Decision.DISJOINT


class CurveGraphRePresentation(_StagedEnumeration):
    """Enumerates open rational balls that provably meet the graph.

    A ball is emitted once some dyadic sample point delta strictly inside
    it (at stage s, up to 2^min(s, 8) + 1 of them) has its curve value
    proven strictly inside the ball's rate range.
    """

    kind = "re"

    def __init__(self, curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION):
        super().__init__(base_precision)
        _require_usable(curve)
        self.curve = curve

    def _emits(self, ball: RatBall, precision: int) -> bool:
        span = self.curve.span
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        a = max(d_iv.lo, span[0])
        b = min(d_iv.hi, span[1])
        if a > b:
            return False
        for delta in _sample_points(a, b, d_iv.lo, d_iv.hi, depth=self._stage):
            value = self.curve.eval(delta, precision)
            if value.lo > r_iv.lo and value.hi < r_iv.hi:
                return True
        return False


def _sample_points(a: Fraction, b: Fraction, open_lo: Fraction, open_hi: Fraction,
                   depth: int) -> Iterator[Fraction]:
    """Dyadic probes of [a, b] lying strictly inside (open_lo, open_hi)."""
    for endpoint in (a, b):
        if open_lo < endpoint < open_hi:
            yield endpoint
    if a == b:
        return
    steps = 1 << min(depth, 8)
    width = b - a
    for i in range(1, steps):
        yield a + width * Fraction(i, steps)


def core_from_curve(curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION) -> CurveGraphCoPresentation:
    return CurveGraphCoPresentation(curve, base_precision)


def re_from_curve(curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION) -> CurveGraphRePresentation:
    return CurveGraphRePresentation(curve, base_precision)


class DomainCoPresentation(_StagedEnumeration):
    """Closed-rectangle provers for the complement side of a monotone domain:
    a ball is emitted when it misses the unit square or its closure provably
    misses U (f(x0) < y0 at the clipped lower-left corner)."""

    kind = "co"

    def __init__(self, curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION):
        super().__init__(base_precision)
        self.decider = DomainBallDecider(curve)

    def _emits(self, ball: RatBall, precision: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, ZERO)
        y0 = max(r_iv.lo, ZERO)
        if x0 > min(d_iv.hi, ONE) or y0 > min(r_iv.hi, ONE):
            return True  # no overlap with the unit square at all
        fa = self.decider.curve.eval(x0, precision)
        return DomainBallDecider.closed_verdict(fa, y0) is Decision.DISJOINT


class DomainRePresentation(_StagedEnumeration):
    """Open-rectangle provers for the inside of a monotone domain: a ball is
    emitted when its open part within the unit square provably meets U
    (f(x0) > y0 at the clipped lower-left corner)."""

    kind = "re"

    def __init__(self, curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION):
        super().__init__(base_precision)
        self.decider = DomainBallDecider(curve)

    def _emits(self, ball: RatBall, precision: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, ZERO)
        x1 = min(d_iv.hi, ONE)
        if x0 > x1 or (x0 == x1 and not d_iv.lo < x0 < d_iv.hi):
            return False
        y0 = max(r_iv.lo, ZERO)
        if y0 >= r_iv.hi:
            return False
        fa = self.decider.curve.eval(x0, precision)
        return DomainBallDecider.open_verdict(fa, y0) is Decision.INTERSECTS


def domain_presentations(curve: BoundCurve, base_precision: int = DEFAULT_BASE_PRECISION
                         ) -> tuple[DomainRePresentation, DomainCoPresentation]:
    """(r.e., co-r.e.) pair presenting U = {R <= f(delta)}."""
    return DomainRePresentation(curve, base_precision), DomainCoPresentation(curve, base_precision)


# --- N-strips (graph approximation) ----------------------------------------


@dataclass(frozen=True)
class NStrip:
    """Union of grid squares meeting a decreasing curve's graph.

    ``column_ranges`` lists the occupied columns i, contiguous and in order,
    each with its contiguous row range (lo, hi) inclusive. ``capped`` lists
    squares kept conservatively because they were still undecided at the
    precision cap. Everything else is derived from the column ranges: the
    cells, the upper and lower boundary staircases ``gamma_plus`` and
    ``gamma_minus``, and the end segments.
    """

    n_grid: int
    column_ranges: tuple[tuple[int, int, int], ...]  # (i, lo, hi), i contiguous and increasing
    capped: tuple[tuple[int, int], ...] = ()

    def cells(self) -> list[tuple[int, int]]:
        """The strip's squares (i, j), sorted."""
        return [(i, j) for i, lo, hi in self.column_ranges for j in range(lo, hi + 1)]

    def ball_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.cells())

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(i for i, _, _ in self.column_ranges)

    def column_range(self, i: int) -> Optional[tuple[int, int]]:
        k = i - self.column_ranges[0][0]
        if 0 <= k < len(self.column_ranges) and self.column_ranges[k][0] == i:
            return self.column_ranges[k][1:]
        return None

    @cached_property
    def gamma_plus(self) -> tuple[RatPoint, ...]:
        """Upper boundary staircase: the top edges of the columns."""
        return _staircase(self.column_ranges[0][0],
                          (Fraction(hi + 1, self.n_grid) for _, _, hi in self.column_ranges), self.n_grid)

    @cached_property
    def gamma_minus(self) -> tuple[RatPoint, ...]:
        """Lower boundary staircase: the bottom edges of the columns."""
        return _staircase(self.column_ranges[0][0],
                          (Fraction(lo, self.n_grid) for _, lo, _ in self.column_ranges), self.n_grid)

    @property
    def end_segments(self) -> tuple[tuple[RatPoint, RatPoint], tuple[RatPoint, RatPoint]]:
        """The two vertical boundary segments at the strip ends."""
        return (self.gamma_minus[0], self.gamma_plus[0]), (self.gamma_minus[-1], self.gamma_plus[-1])

    @property
    def end_segments_degenerate(self) -> tuple[bool, bool]:
        """Flags end columns that collapse to a single square."""
        first = self.column_ranges[0]
        last = self.column_ranges[-1]
        return (first[1] == first[2], last[1] == last[2])

    def max_column_height(self) -> Fraction:
        return max(Fraction(hi - lo + 1, self.n_grid) for _, lo, hi in self.column_ranges)

    def boundary_within(self, dist: Fraction) -> bool:
        """Exact check: each boundary staircase within max-metric ``dist`` of the other."""
        return (polyline_within(dist, self.gamma_minus, self.gamma_plus)
                and polyline_within(dist, self.gamma_plus, self.gamma_minus))

    def to_json(self) -> dict:
        return {
            "n_grid": self.n_grid,
            "balls": [list(cell) for cell in self.cells()],
            "gamma_plus": vertex_list(self.gamma_plus),
            "gamma_minus": vertex_list(self.gamma_minus),
            "capped": sorted(list(pair) for pair in self.capped),
            "end_segments_degenerate": list(self.end_segments_degenerate),
        }


def _staircase(first: int, heights: Iterable[Fraction], n_grid: int) -> tuple[RatPoint, ...]:
    """Polyline across the columns first, first + 1, ... at the given
    heights: a horizontal edge over each column, joined to the next by a
    vertical step where the heights differ."""
    verts: list[RatPoint] = []
    for i, y in enumerate(heights, start=first):
        if not verts or verts[-1].r != y:
            verts.append(RatPoint(y, Fraction(i, n_grid)))
        verts.append(RatPoint(y, Fraction(i + 1, n_grid)))
    return tuple(verts)


def build_strip(
    curve: BoundCurve,
    n_grid: int,
    timeout_ms: Optional[int] = None,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> NStrip:
    """Grid squares not provably disjoint from the curve's graph, once every
    column's precision ladder settles, together with the boundary staircases.

    Squares undecided at the precision cap stay in the strip (conservative)
    and are reported in ``capped``. Raises StabilizationTimeoutError with the
    columns decided so far when the wall clock runs out first.
    """
    decider = GraphBallDecider(curve)
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None

    def column_pieces(i: int, precision: int) -> list[Segment]:
        ends = decider.ends(Fraction(i, n_grid), Fraction(i + 1, n_grid), precision)
        if ends is None:
            return [(0, n_grid - 1, (Decision.DISJOINT,))]
        fa, fb = ends
        # rows where f(a) >= j/N, f(b) <= (j+1)/N, f(a) < j/N, f(b) > (j+1)/N flip
        starts = (_floor_times(fa.lo, n_grid) + 1, _ceil_times(fb.hi, n_grid) - 1,
                  _floor_times(fa.hi, n_grid) + 1, _ceil_times(fb.lo, n_grid) - 1)
        return _row_pieces(n_grid, starts, lambda j: (
            decider.verdict(ends, Fraction(j, n_grid), Fraction(j + 1, n_grid)),))

    columns = _sweep_columns(n_grid, column_pieces, deadline, base_precision, precision_cap,
                             "strip construction")
    capped = []
    members: dict[int, list[tuple[int, int]]] = {}
    for i, segments in enumerate(columns):
        for lo, hi, (dec,) in segments:
            if dec is Decision.UNKNOWN:
                capped.extend((i, j) for j in range(lo, hi + 1))
            if dec is not Decision.DISJOINT:
                members.setdefault(i, []).append((lo, hi))
    if not members:
        raise InternalContractError("no grid square meets the presented graph")
    return _assemble_strip(n_grid, members, tuple(capped))


def _assemble_strip(n_grid: int, members: dict[int, list[tuple[int, int]]],
                    capped: tuple[tuple[int, int], ...]) -> NStrip:
    """Strip from each occupied column's member row ranges, sorted by row."""
    cols = sorted(members)
    if cols != list(range(cols[0], cols[-1] + 1)):
        raise InternalContractError("strip columns are not contiguous")
    ranges = []
    for i in cols:
        rows = members[i]
        if any(lo != prev_hi + 1 for (_, prev_hi), (lo, _) in zip(rows, rows[1:])):
            raise InternalContractError(f"strip column {i} is not contiguous")
        ranges.append((i, rows[0][0], rows[-1][1]))
    for (i, lo, hi), (i2, lo2, hi2) in zip(ranges, ranges[1:]):
        if lo2 > hi + 1 or hi2 < lo - 1:
            raise InternalContractError(f"strip disconnected between columns {i} and {i2}")
    return NStrip(n_grid=n_grid, column_ranges=tuple(ranges), capped=capped)


# --- three-way point classification ----------------------------------------


@dataclass(frozen=True)
class PointPartition:
    below: tuple[RatPoint, ...]
    inside: tuple[RatPoint, ...]
    above: tuple[RatPoint, ...]


def classify_points(points: Sequence[RatPoint], strip: NStrip) -> PointPartition:
    """Exact partition of unit-square points against the strip.

    A point in any strip square (closed) is Inside; otherwise it compares
    against the strip's row range over the columns whose closed delta-range
    contains it. For connected strips the verdict cannot be mixed.
    """
    n = strip.n_grid
    sides: dict[str, list[RatPoint]] = {"below": [], "inside": [], "above": []}
    for p in points:
        if not p.in_unit_square():
            raise ContractViolationError(f"point {p} outside the unit square")
        rows = p.r * n
        verdicts = set()
        # columns {ceil(N delta) - 1, floor(N delta)} within [0, N): two on a grid line
        for c in range(max(_ceil_times(p.delta, n) - 1, 0), min(_floor_times(p.delta, n), n - 1) + 1):
            rng = strip.column_range(c)
            if rng is None:
                raise ContractViolationError(f"strip has no squares in column {c}; cannot classify")
            lo, hi = rng
            verdicts.add("below" if rows < lo else "above" if rows > hi + 1 else "inside")
        if "inside" in verdicts:
            verdicts = {"inside"}
        if len(verdicts) > 1:
            raise InternalContractError(f"mixed verdict for {p}: strip not connected?")
        sides[verdicts.pop()].append(p)
    return PointPartition(tuple(sides["below"]), tuple(sides["inside"]), tuple(sides["above"]))


# --- exceptional-ball two-sided approximation -------------------------------


@dataclass(frozen=True)
class AdmissibleSet:
    """Final partition of the N-grid against a monotone domain, by column.

    ``bands[i] = (a, b)`` splits column i into U- (rows < a), the
    exceptional squares X (rows a..b-1) and U+ (rows >= b); ``initial`` is
    the same split before the amendment pass. The square sets are derived
    from the bands. ``admissible`` records whether X has at most one square
    per column and its rows fall strictly from left to right.
    """

    n_grid: int
    bands: tuple[tuple[int, int], ...]
    initial: tuple[tuple[int, int], ...]
    admissible: bool

    @cached_property
    def u_plus(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, (_, b) in enumerate(self.bands) for j in range(b, self.n_grid))

    @cached_property
    def u_minus(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, (a, _) in enumerate(self.bands) for j in range(a))

    @property
    def exceptional(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, (a, b) in enumerate(self.bands) for j in range(a, b))

    @property
    def initial_undecided(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, (a, b) in enumerate(self.initial) for j in range(a, b))

    def to_json(self) -> dict:
        return {
            "n_grid": self.n_grid,
            "u_plus": sorted(list(p) for p in self.u_plus),
            "u_minus": sorted(list(p) for p in self.u_minus),
            "exceptional": [list(p) for p in self.exceptional],
            "initial_undecided": [list(p) for p in self.initial_undecided],
            "admissible": self.admissible,
        }


def _check_admissible(bands: Sequence[tuple[int, int]]) -> bool:
    """At most one X square per column, and the X rows fall strictly from left to right."""
    rows = [a for a, b in bands if a < b]
    return all(b - a <= 1 for a, b in bands) and all(j2 < j1 for j1, j2 in zip(rows, rows[1:]))


def two_sided_approx(
    curve: BoundCurve,
    n_grid: int,
    timeout_ms: Optional[int] = None,
    base_precision: int = DEFAULT_BASE_PRECISION,
    precision_cap: int = DEFAULT_PRECISION_CAP,
    strict: bool = True,
) -> AdmissibleSet:
    """Decide the N-grid against U = {R <= f(delta)} until every column's
    precision ladder settles, then apply the amendment pass moving undecided
    squares whose closures miss the decided sides.

    With ``strict`` (default) a non-admissible final exceptional set raises
    InternalContractError, which indicates the curve was not strictly
    decreasing; pass strict=False to get the flagged result instead (useful
    for deliberately degenerate stand-ins such as constant curves).
    """
    decider = DomainBallDecider(curve)
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None

    def column_pieces(i: int, precision: int) -> list[Segment]:
        fa = curve.eval(Fraction(i, n_grid), precision)
        # rows where f(x0) >= j/N, f(x0) < j/N, f(x0) > j/N, f(x0) <= j/N flip
        starts = (_floor_times(fa.lo, n_grid) + 1, _floor_times(fa.hi, n_grid) + 1,
                  _ceil_times(fa.lo, n_grid), _ceil_times(fa.hi, n_grid))
        return _row_pieces(n_grid, starts, lambda j: (decider.closed_verdict(fa, Fraction(j, n_grid)),
                                                      decider.open_verdict(fa, Fraction(j, n_grid))))

    columns = _sweep_columns(n_grid, column_pieces, deadline, base_precision, precision_cap,
                             "two-sided approximation")
    # U- is the open-INTERSECTS rows and U+ the closed-DISJOINT rows; both
    # verdicts are monotone in j at every rung, so they form a bottom and a top range
    initial = tuple(
        (max((hi + 1 for _, hi, (_, open_) in segments if open_ is Decision.INTERSECTS), default=0),
         min((lo for lo, _, (closed, _) in segments if closed is Decision.DISJOINT), default=n_grid))
        for segments in columns)

    # amendment pass against the *initial* sides; two closed grid squares meet
    # iff their indices differ by at most one on both axes, so an undecided
    # row j touches U- iff j < top and touches U+ iff j >= bottom
    bands = []
    for i, (a, b) in enumerate(initial):
        near = initial[max(i - 1, 0):i + 2]
        top = 1 + max((a_k for a_k, _ in near if a_k > 0), default=-1)
        bottom = min((b_k - 1 for _, b_k in near if b_k < n_grid), default=n_grid)
        bands.append((max(a, min(b, top, bottom)), min(b, max(a, top))))

    admissible = _check_admissible(bands)
    if strict and not admissible:
        raise InternalContractError(
            "exceptional set is not admissible; input was not a strictly "
            "decreasing monotone domain"
        )
    return AdmissibleSet(n_grid=n_grid, bands=tuple(bands), initial=initial, admissible=admissible)


# --- staircase curve estimates ----------------------------------------------


@dataclass(frozen=True)
class CurveEstimate:
    """Per-column two-sided staircase estimate of the bounding curve.

    ``upper_values[i]`` is the bottom edge of the lowest square of U+ or X
    in column i (default 1), ``lower_values[i]`` the top edge of the highest
    square of U- (default 0); both are a/N for the column's final band
    (a, b), so the two staircases coincide. They are within 1/N of the true
    curve at the column's left abscissa, and each exceptional square
    contributes its lower-left corner as a point estimate sitting exactly on
    the curve for exact stand-ins.
    """

    n_grid: int
    upper_values: tuple[Fraction, ...]
    lower_values: tuple[Fraction, ...]
    corner_points: tuple[RatPoint, ...]

    @property
    def error_bound(self) -> Fraction:
        return Fraction(1, self.n_grid)

    def abscissae(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(i, self.n_grid) for i in range(self.n_grid))

    def upper_polyline(self) -> tuple[RatPoint, ...]:
        return _staircase(0, self.upper_values, self.n_grid)

    def lower_polyline(self) -> tuple[RatPoint, ...]:
        return _staircase(0, self.lower_values, self.n_grid)


def curve_estimate(adm: AdmissibleSet) -> CurveEstimate:
    n = adm.n_grid
    values = tuple(Fraction(a, n) for a, _ in adm.bands)
    corners = tuple(RatPoint(Fraction(j, n), Fraction(i, n)) for i, j in adm.exceptional)
    return CurveEstimate(n_grid=n, upper_values=values, lower_values=values, corner_points=corners)


# --- exact polyline proximity ------------------------------------------------


def _segments(vertices: Sequence[RatPoint]) -> list[tuple[RatPoint, RatPoint]]:
    segs = []
    for a, b in zip(vertices, vertices[1:]):
        if a.delta != b.delta and a.r != b.r:
            raise ContractViolationError("polyline segments must be axis-parallel")
        segs.append((a, b))
    return segs


def polyline_within(dist: Fraction, inner: Sequence[RatPoint], outer: Sequence[RatPoint]) -> bool:
    """Exact test: every point of ``inner`` lies within max-metric ``dist``
    of some point of ``outer``. Both polylines must be axis-parallel.

    The max-metric ``dist``-neighborhood of an axis-parallel segment is the
    inflated bounding rectangle, so the test reduces to covering each inner
    segment by rectangles, an exact rational interval-union computation.
    """
    rects = []
    for a, b in _segments(outer):
        x0, x1 = sorted((a.delta, b.delta))
        y0, y1 = sorted((a.r, b.r))
        rects.append((x0 - dist, x1 + dist, y0 - dist, y1 + dist))

    for a, b in _segments(inner):
        covered: list[tuple[Fraction, Fraction]] = []
        for x0, x1, y0, y1 in rects:
            piece = _segment_in_rect(a, b, x0, x1, y0, y1)
            if piece is not None:
                covered.append(piece)
        if not _covers_unit(covered):
            return False
    return True


def _segment_in_rect(a: RatPoint, b: RatPoint, x0, x1, y0, y1) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter subinterval of segment a->b inside the rectangle, or None."""
    lo, hi = ZERO, ONE

    for start, end, lo_bound, hi_bound in (
        (a.delta, b.delta, x0, x1),
        (a.r, b.r, y0, y1),
    ):
        span = end - start
        if span == 0:
            if not lo_bound <= start <= hi_bound:
                return None
            continue
        t0 = (lo_bound - start) / span
        t1 = (hi_bound - start) / span
        if t0 > t1:
            t0, t1 = t1, t0
        lo = max(lo, t0)
        hi = min(hi, t1)
        if lo > hi:
            return None
    return (lo, hi)


def _covers_unit(intervals: list[tuple[Fraction, Fraction]]) -> bool:
    if not intervals:
        return False
    intervals.sort()
    reach = ZERO
    for lo, hi in intervals:
        if lo > reach:
            return False
        reach = max(reach, hi)
        if reach >= ONE:
            return True
    return reach >= ONE
