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
curve once per column end per rung, until all of its rows are decided. Each
verdict is monotone in the row index j, so a column is kept as rows alone
and each rung cuts them at integer row bounds (exact floors and ceilings of
N times an endpoint): a strip column is its member and pending row ranges,
a domain column its band (a, b) of undecided rows. A column end is the
integer pair (i, N), clipped to the curve span by cross-multiplication, and
the curve answers it with integer pairs (``BoundCurve.eval_pairs``), so the
grid loops build no Fraction; the deciders serve the presentations. Cells and
staircases come from the column ranges and bands, with no N x N table and
no per-square object. A staircase stays integer N-grid vertices (i, j), the
point (j/N, i/N), up to its written text and floats; Fraction appears only
in the library views. A square still undecided at the cap is treated as
meeting the set (conservative: strips may widen, never falsely thin). The
amendment pass of the two-sided approximation compares neighbouring bands,
since two closed grid squares meet iff their column and row indices each
differ by at most one.
Presentations over general rational balls enumerate a canonical dovetailed
ball sequence so soundness examples can be exercised directly; each is one
``Presentation``, whose ``advance`` runs the shared stage loop, built with
the per-ball test that decides whether a ball is emitted.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bounds import BoundCurve, Pair
from .budget import DEFAULT_BUDGET, SearchBudget, _Meter
from .errors import (
    ContractViolationError,
    InternalContractError,
    StabilizationTimeoutError,
)
from .geometry import BallKind, GridBall, RatBall, RatInterval, RatPoint, SquareRuns, format_ratio
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
        """Closed rectangle vs graph: intersects iff f(a) >= r_lo and f(b) <= r_hi,
        [a, b] the delta range [d_lo, d_hi] clipped to the curve span."""
        a, b = max(d_lo, self.curve.span[0]), min(d_hi, self.curve.span[1])
        if a > b:
            return Decision.DISJOINT
        fa, fb = self.curve.eval(a, precision), self.curve.eval(b, precision)
        if fa.lo >= r_lo and fb.hi <= r_hi:
            return Decision.INTERSECTS
        if fa.hi < r_lo or fb.lo > r_hi:
            return Decision.DISJOINT
        return Decision.UNKNOWN


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


def _floor_times(x: Pair, n: int) -> int:
    """Exact floor(n * x) of x = (numerator, denominator), denominator positive."""
    return (x[0] * n) // x[1]


def _ceil_times(x: Pair, n: int) -> int:
    """Exact ceil(n * x) of x = (numerator, denominator), denominator positive."""
    return -((-x[0] * n) // x[1])


def _cut(ranges: list[tuple[int, int]], lo: int, hi: int) -> tuple[list, list]:
    """Row ranges split into their pieces inside [lo, hi] and the pieces outside."""
    hi = max(hi, lo - 1)  # an empty [lo, hi] cuts each range once, at lo
    inside, outside = [], []
    for r_lo, r_hi in ranges:
        inside += [(max(r_lo, lo), min(r_hi, hi))] if max(r_lo, lo) <= min(r_hi, hi) else []
        outside += [p for p in ((r_lo, min(r_hi, lo - 1)), (max(r_lo, hi + 1), r_hi)) if p[0] <= p[1]]
    return inside, outside


def _sweep_columns(n_grid: int, start: object, rung: Callable[[int, object, int], tuple[object, bool]],
                   meter: _Meter, what: str) -> list:
    """Walk each column up the precision ladder, from ``DEFAULT_BASE_PRECISION``
    bits doubling to ``DEFAULT_PRECISION_CAP``, until its rows are decided.

    Every column starts in state ``start``; ``rung(i, state, precision)``
    evaluates the curve for column i once, cuts the rows still pending at
    integer row bounds, and returns the new state and whether rows remain
    pending. Decided rows are never revisited (enclosures at different rungs
    need not be nested), and rows pending at the cap stay pending. Returns
    every column's final state, column i at index i; once ``meter`` is spent,
    the StabilizationTimeoutError carries the states of the finished columns.
    """
    if n_grid < 1:
        raise ContractViolationError("grid resolution must be >= 1")
    columns: list = []
    for i in range(n_grid):
        state, precision = start, DEFAULT_BASE_PRECISION
        while True:
            if meter.exhausted():
                raise StabilizationTimeoutError(f"{what} timed out", partial=columns)
            state, pending = rung(i, state, precision)
            if not pending or precision >= DEFAULT_PRECISION_CAP:
                break
            precision = min(DEFAULT_PRECISION_CAP, precision * 2)
        columns.append(state)
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


class Presentation:
    """A ball presentation: deterministic stages over the canonical balls.

    Stage s tests the first s canonical balls at precision
    min(DEFAULT_PRECISION_CAP, DEFAULT_BASE_PRECISION + 4s) with the per-ball
    test ``emits(ball, precision, s)``, and emits each ball it accepts the
    first time it does. ``kind`` is "re" when the emitted balls provably meet
    the presented set and "co" when their closures provably miss it.
    """

    def __init__(self, kind: str, emits: Callable[[RatBall, int, int], bool]):
        self.kind = kind
        self._emits = emits
        self._stage = 0
        self._emitted: dict[RatBall, None] = {}  # insertion-ordered set

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
            precision = min(DEFAULT_PRECISION_CAP, DEFAULT_BASE_PRECISION + 4 * self._stage)
            for idx in range(self._stage):
                ball = canonical_ball(idx)
                if self._emits(ball, precision, self._stage) and ball not in self._emitted:
                    self._emitted[ball] = None
                    fresh.append(ball)
        return fresh


def re_from_dense_points(stream_factory: Callable[[], Iterator[RatPoint]]) -> Presentation:
    """r.e. presentation of the closure of a point stream: at stage s a ball
    is emitted once it contains one of the first s streamed points."""
    stream = stream_factory()
    points: list[RatPoint] = []

    def emits(ball: RatBall, precision: int, stage: int) -> bool:
        # streamed points up to the stage number, fewer once the stream ends
        points.extend(itertools.islice(stream, stage - len(points)))
        return any(ball.contains(p) for p in points)

    return Presentation("re", emits)


def core_from_curve(curve: BoundCurve) -> Presentation:
    """co-r.e. presentation of the graph: open rational balls whose closures
    provably miss it."""
    decider = GraphBallDecider(curve)

    def emits(ball: RatBall, precision: int, stage: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        return decider.decide(d_iv.lo, d_iv.hi, r_iv.lo, r_iv.hi, precision) is Decision.DISJOINT

    return Presentation("co", emits)


def re_from_curve(curve: BoundCurve) -> Presentation:
    """r.e. presentation of the graph: a ball is emitted once some dyadic
    sample point delta strictly inside it (at stage s, up to 2^min(s, 8) + 1
    of them) has its curve value proven strictly inside the ball's rate range."""
    _require_usable(curve)
    span = curve.span

    def emits(ball: RatBall, precision: int, stage: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        a = max(d_iv.lo, span[0])
        b = min(d_iv.hi, span[1])
        values = (curve.eval(delta, precision) for delta in _sample_points(a, b, d_iv.lo, d_iv.hi, stage))
        return a <= b and any(r_iv.lo < v.lo and v.hi < r_iv.hi for v in values)

    return Presentation("re", emits)


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


def domain_presentations(curve: BoundCurve) -> tuple[Presentation, Presentation]:
    """(r.e., co-r.e.) pair presenting U = {R <= f(delta)}, both read at the
    lower-left corner (x0, y0) of a ball's part within the unit square.

    The r.e. side emits a ball when that open part provably meets U
    (f(x0) > y0); the co-r.e. side emits it when it misses the unit square
    or its closure provably misses U (f(x0) < y0).
    """
    DomainBallDecider(curve)  # the contract checks: continuous, spanning [0, 1]

    def re_emits(ball: RatBall, precision: int, stage: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, ZERO)
        x1 = min(d_iv.hi, ONE)
        if x0 > x1 or (x0 == x1 and not d_iv.lo < x0 < d_iv.hi):
            return False
        y0 = max(r_iv.lo, ZERO)
        return y0 < r_iv.hi and DomainBallDecider.open_verdict(
            curve.eval(x0, precision), y0) is Decision.INTERSECTS

    def co_emits(ball: RatBall, precision: int, stage: int) -> bool:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, ZERO)
        y0 = max(r_iv.lo, ZERO)
        if x0 > min(d_iv.hi, ONE) or y0 > min(r_iv.hi, ONE):
            return True  # no overlap with the unit square at all
        return DomainBallDecider.closed_verdict(curve.eval(x0, precision), y0) is Decision.DISJOINT

    return Presentation("re", re_emits), Presentation("co", co_emits)


# --- N-strips (graph approximation) ----------------------------------------


@dataclass(frozen=True)
class NStrip:
    """Union of grid squares meeting a decreasing curve's graph.

    ``column_ranges`` lists the occupied columns i, contiguous and in order,
    each with its contiguous row range (lo, hi) inclusive. ``capped`` lists
    squares kept conservatively because they were still undecided at the
    precision cap. Everything else is derived from the column ranges: the
    cells, the upper and lower boundary staircases ``gamma_plus`` and
    ``gamma_minus``, and the end-column flags.
    """

    n_grid: int
    column_ranges: tuple[tuple[int, int, int], ...]  # (i, lo, hi), i contiguous and increasing
    capped: tuple[tuple[int, int], ...] = ()

    def cells(self) -> list[tuple[int, int]]:
        """The strip's squares (i, j), sorted."""
        return [(i, j) for i, lo, hi in self.column_ranges for j in range(lo, hi + 1)]

    def column_range(self, i: int) -> Optional[tuple[int, int]]:
        k = i - self.column_ranges[0][0]
        if 0 <= k < len(self.column_ranges) and self.column_ranges[k][0] == i:
            return self.column_ranges[k][1:]
        return None

    @cached_property
    def staircases(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """The upper and lower boundary staircases in N-grid vertices: the top and bottom edges of the columns."""
        return (_staircase((i, hi + 1) for i, _, hi in self.column_ranges),
                _staircase((i, lo) for i, lo, _ in self.column_ranges))

    @cached_property
    def gamma_plus(self) -> tuple[RatPoint, ...]:
        return _grid_points(self.staircases[0], self.n_grid)

    @cached_property
    def gamma_minus(self) -> tuple[RatPoint, ...]:
        return _grid_points(self.staircases[1], self.n_grid)

    @property
    def end_segments_degenerate(self) -> tuple[bool, bool]:
        """Flags end columns that collapse to a single square."""
        return tuple(lo == hi for _, lo, hi in (self.column_ranges[0], self.column_ranges[-1]))

    def boundary_within(self, dist: Fraction) -> bool:
        """Exact check: each boundary staircase within max-metric ``dist`` of the other."""
        return (polyline_within(dist, self.gamma_minus, self.gamma_plus)
                and polyline_within(dist, self.gamma_plus, self.gamma_minus))

    def to_json(self) -> dict:
        return {
            "n_grid": self.n_grid,
            "balls": SquareRuns(tuple((i, lo, hi + 1) for i, lo, hi in self.column_ranges)),
            "gamma_plus": _vertex_text(self.staircases[0], self.n_grid),
            "gamma_minus": _vertex_text(self.staircases[1], self.n_grid),
            "capped": sorted(list(pair) for pair in self.capped),
            "end_segments_degenerate": list(self.end_segments_degenerate),
        }


def _staircase(levels: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """N-grid vertices (i, j), the point (j/N, i/N), of the polyline at row j over each
    consecutive column i of ``levels``, with a vertical step where the rows differ."""
    verts: list[tuple[int, int]] = []
    for i, j in levels:
        if not verts or verts[-1][1] != j:
            verts.append((i, j))
        verts.append((i + 1, j))
    return tuple(verts)


def _grid_points(vertices: Iterable[tuple[int, int]], n_grid: int) -> tuple[RatPoint, ...]:
    """N-grid vertices (i, j) as the exact points (R, delta) = (j/N, i/N)."""
    return tuple(RatPoint(Fraction(j, n_grid), Fraction(i, n_grid)) for i, j in vertices)


def _vertex_text(vertices: Iterable[tuple[int, int]], n_grid: int) -> list[list[str]]:
    """N-grid vertices (i, j) as [[delta, R], ...] text in lowest terms, from the N + 1 texts of k/N."""
    texts = [format_ratio(k, n_grid) for k in range(n_grid + 1)]
    return [[texts[i], texts[j]] for i, j in vertices]


def build_strip(
    curve: BoundCurve,
    n_grid: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> NStrip:
    """Grid squares not provably disjoint from the curve's graph, once every
    column's precision ladder settles, together with the boundary staircases.

    Squares undecided at the precision cap stay in the strip (conservative)
    and are reported in ``capped``. Raises StabilizationTimeoutError with the
    columns decided so far when ``budget``'s wall clock runs out first.
    """
    _require_usable(curve)
    (s0, s0_d), (s1, s1_d) = ((x.numerator, x.denominator) for x in curve.span)

    def rung(i: int, column, precision: int):
        members, pending = column
        # the column's delta range [i/N, (i+1)/N] clipped to the span [s0, s1]
        a = (i, n_grid) if i * s0_d >= s0 * n_grid else (s0, s0_d)
        b = (i + 1, n_grid) if (i + 1) * s1_d <= s1 * n_grid else (s1, s1_d)
        if a[0] * b[1] > b[0] * a[1]:
            return ([], []), False
        (fa_lo, fa_hi), (fb_lo, fb_hi) = curve.eval_pairs(*a, precision), curve.eval_pairs(*b, precision)
        # row j meets the graph iff f(a) >= j/N and f(b) <= (j+1)/N: keep the
        # rows where both may hold, and decide those where both surely hold
        maybe, _ = _cut(pending, _ceil_times(fb_lo, n_grid) - 1, _floor_times(fa_hi, n_grid))
        sure, pending = _cut(maybe, _ceil_times(fb_hi, n_grid) - 1, _floor_times(fa_lo, n_grid))
        return (members + sure, pending), bool(pending)

    columns = _sweep_columns(n_grid, ([], [(0, n_grid - 1)]), rung, _Meter(budget), "strip construction")
    capped = tuple((i, j) for i, (_, pending) in enumerate(columns)
                   for lo, hi in pending for j in range(lo, hi + 1))
    members = {i: sorted(sure + pending) for i, (sure, pending) in enumerate(columns) if sure or pending}
    if not members:
        raise InternalContractError("no grid square meets the presented graph")
    return _assemble_strip(n_grid, members, capped)


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
        delta = (p.delta.numerator, p.delta.denominator)
        # columns {ceil(N delta) - 1, floor(N delta)} within [0, N): two on a grid line
        for c in range(max(_ceil_times(delta, n) - 1, 0), min(_floor_times(delta, n), n - 1) + 1):
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

    @property
    def exceptional(self) -> tuple[tuple[int, int], ...]:
        return tuple(_runs(self.bands))

    @property
    def initial_undecided(self) -> tuple[tuple[int, int], ...]:
        return tuple(_runs(self.initial))

    def to_json(self) -> dict:
        """The square lists as column runs: U+ and U- stay O(N) until written."""
        return {
            "n_grid": self.n_grid,
            "u_plus": _runs((b, self.n_grid) for _, b in self.bands),
            "u_minus": _runs((0, a) for a, _ in self.bands),
            "exceptional": _runs(self.bands),
            "initial_undecided": _runs(self.initial),
            "admissible": self.admissible,
        }


def _runs(rows: Iterable[tuple[int, int]]) -> SquareRuns:
    """Rows lo..hi-1 of each column i, ``rows`` giving (lo, hi) for column i at index i."""
    return SquareRuns(tuple((i, lo, hi) for i, (lo, hi) in enumerate(rows)))


def _check_admissible(bands: Sequence[tuple[int, int]]) -> bool:
    """At most one X square per column, and the X rows fall strictly from left to right."""
    rows = [a for a, b in bands if a < b]
    return all(b - a <= 1 for a, b in bands) and all(j2 < j1 for j1, j2 in zip(rows, rows[1:]))


def two_sided_approx(
    curve: BoundCurve,
    n_grid: int,
    budget: SearchBudget = DEFAULT_BUDGET,
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
    DomainBallDecider(curve)  # the contract checks: continuous, spanning [0, 1]

    def rung(i: int, band: tuple[int, int], precision: int):
        a, b = band
        f_lo, f_hi = curve.eval_pairs(i, n_grid, precision)
        # rows j < N f.lo are U- (the open square meets U), rows j > N f.hi
        # are U+ (the closed square misses it); a point enclosure on a grid
        # line decides its row as neither, which leaves it in the band
        lo, hi = _ceil_times(f_lo, n_grid), _floor_times(f_hi, n_grid) + 1
        a, b = min(max(lo, a), b), min(max(hi, a), b)
        return (a, b), a < b and f_lo[0] * f_hi[1] < f_hi[0] * f_lo[1]

    initial = tuple(_sweep_columns(n_grid, (0, n_grid), rung, _Meter(budget), "two-sided approximation"))

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

    ``rows[i]`` is the a of column i's final band (a, b): the bottom edge of
    the lowest square of U+ or X (default 1) and the top edge of the highest
    square of U- (default 0) are both a/N, so the two staircases coincide.
    They are within 1/N of the true curve at the column's left abscissa, and
    each exceptional square's lower-left corner is a point estimate sitting
    exactly on the curve for exact stand-ins.
    """

    n_grid: int
    rows: tuple[int, ...]
    exceptional: tuple[tuple[int, int], ...]

    @property
    def upper_values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.n_grid) for a in self.rows)

    lower_values = upper_values  # the staircases coincide

    @property
    def corner_points(self) -> tuple[RatPoint, ...]:
        return _grid_points(self.exceptional, self.n_grid)

    @property
    def error_bound(self) -> Fraction:
        return Fraction(1, self.n_grid)

    def abscissae(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(i, self.n_grid) for i in range(self.n_grid))

    def upper_polyline(self) -> tuple[RatPoint, ...]:
        return _grid_points(_staircase(enumerate(self.rows)), self.n_grid)

    lower_polyline = upper_polyline

    def to_json(self) -> dict:
        staircase = _vertex_text(_staircase(enumerate(self.rows)), self.n_grid)
        return {"upper_staircase": staircase, "lower_staircase": staircase,
                "corner_points": _vertex_text(self.exceptional, self.n_grid),
                "error_bound": format_ratio(1, self.n_grid)}

    def csv_rows(self) -> list[list[str]]:
        """Per column: delta, lower, upper, lower_float, upper_float (k / N is float(Fraction(k, N)))."""
        values = [(format_ratio(a, self.n_grid), f"{a / self.n_grid:.12g}") for a in self.rows]
        return [[format_ratio(i, self.n_grid), text, text, approx, approx] for i, (text, approx) in enumerate(values)]


def curve_estimate(adm: AdmissibleSet) -> CurveEstimate:
    return CurveEstimate(n_grid=adm.n_grid, rows=tuple(a for a, _ in adm.bands), exceptional=adm.exceptional)


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
