import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from codeplane.bounds import (
    BoundCurve,
    constant_curve,
    diagonal_curve,
    gv_lower_curve,
    hamming_curve,
    synthetic_polyline,
    vg_bound_curve,
)
from codeplane.effective import (
    DEFAULT_BASE_PRECISION,
    DEFAULT_PRECISION_CAP,
    Decision,
    DomainBallDecider,
    GraphBallDecider,
    build_strip,
    canonical_ball,
    classify_points,
    core_from_curve,
    curve_estimate,
    domain_presentations,
    polyline_within,
    re_from_curve,
    re_from_dense_points,
    two_sided_approx,
)
from codeplane import effective
from codeplane.errors import ContractViolationError, InternalContractError
from codeplane.geometry import GridBall, RatInterval, RatPoint, balls_closures_intersect, format_rational


DIAG = diagonal_curve()


def test_graph_decider_exact_cases():
    decider = GraphBallDecider(DIAG)
    # [0,1/4] x [0,1/4] is strictly below the line
    assert decider.decide_ball(GridBall(4, 0, 0), 8) is Decision.DISJOINT
    # (i=1, j=2) at N=4 has i+j=3: intersects
    assert decider.decide_ball(GridBall(4, 1, 2), 8) is Decision.INTERSECTS
    # corner-touching ball counts as intersecting (closed convention)
    assert decider.decide_ball(GridBall(4, 1, 3), 8) is Decision.INTERSECTS


def test_graph_decider_interval_curve():
    decider = GraphBallDecider(vg_bound_curve(2))
    # [0,1/8] x [0,1/8]: curve is above 0.35 there
    assert decider.decide(Fraction(0), Fraction(1, 8), Fraction(0), Fraction(1, 8), 20) is Decision.DISJOINT
    # a ball straddling the curve value is proven intersecting
    assert decider.decide(Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 20) is Decision.INTERSECTS


def test_build_strip_diagonal_n4():
    strip = build_strip(DIAG, 4)
    assert strip.ball_set() == {
        (i, j) for i in range(4) for j in range(4) if i + j in (2, 3, 4)
    }
    assert len(strip.ball_set()) == 10
    assert strip.boundary_within(Fraction(2, 4))
    assert not strip.boundary_within(Fraction(1, 4))


def test_build_strip_constant_half_n2():
    strip = build_strip(constant_curve(Fraction(1, 2)), 2)
    assert strip.ball_set() == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("n_grid", [4, 16, 64])
def test_build_strip_diagonal_widths(n_grid):
    strip = build_strip(DIAG, n_grid)
    assert strip.boundary_within(Fraction(2, n_grid))
    left, right = strip.end_segments
    assert left[0].delta == left[1].delta == 0
    assert right[0].delta == right[1].delta == 1


def test_build_strip_vg_valid_but_wider_than_2_over_n():
    # steep section near delta = 0 makes column 0 four squares tall at N=16,
    # so the 2/N bound cannot hold there; the strip itself is still valid
    strip = build_strip(vg_bound_curve(2), 16)
    assert strip.column_range(0) == (5, 8)
    assert strip.max_column_height() == Fraction(4, 16)
    assert not strip.boundary_within(Fraction(2, 16))
    assert strip.boundary_within(Fraction(4, 16))
    assert not strip.capped


def test_strip_partial_span_polyline():
    curve = synthetic_polyline([RatPoint.of(1, Fraction(1, 4)), RatPoint.of(0, Fraction(3, 4))])
    strip = build_strip(curve, 4)
    # the graph endpoints (1/4, 1) and (3/4, 0) touch the corner squares of
    # the neighboring columns, and touching counts under the closed convention
    assert strip.columns == (0, 1, 2, 3)
    assert strip.column_range(0) == (3, 3)
    assert strip.column_range(3) == (0, 0)
    # single-square end columns are the degenerate-end case, and flagged
    assert strip.end_segments_degenerate == (True, True)


def test_classify_points_diagonal():
    strip = build_strip(DIAG, 4)
    below = RatPoint.of(Fraction(1, 8), Fraction(1, 8))
    above = RatPoint.of(Fraction(7, 8), Fraction(7, 8))
    inside = RatPoint.of(Fraction(1, 2), Fraction(1, 2))
    part = classify_points([below, above, inside], strip)
    assert part.below == (below,)
    assert part.above == (above,)
    assert part.inside == (inside,)


def test_classify_refinement_is_stable():
    # a point strictly off the curve keeps its verdict as N doubles
    p_below = RatPoint.of(Fraction(1, 8), Fraction(1, 8))
    p_above = RatPoint.of(Fraction(15, 16), Fraction(15, 16))
    for n_grid in (4, 8, 16):
        part = classify_points([p_below, p_above], build_strip(DIAG, n_grid))
        assert part.below == (p_below,)
        assert part.above == (p_above,)


def test_classify_rejects_outside_unit_square():
    strip = build_strip(DIAG, 4)
    with pytest.raises(ContractViolationError):
        classify_points([RatPoint.of(2, 0)], strip)


def test_two_sided_diagonal_n4():
    adm = two_sided_approx(DIAG, n_grid=4)
    assert adm.exceptional == ((1, 3), (2, 2), (3, 1))
    assert adm.admissible
    assert (0, 0) in adm.u_minus and (3, 3) in adm.u_plus


def test_two_sided_full_square_and_degenerate_zero():
    adm = two_sided_approx(constant_curve(Fraction(1)), n_grid=2)
    assert len(adm.u_minus) == 4 and not adm.exceptional
    adm = two_sided_approx(constant_curve(Fraction(0)), n_grid=4)
    # initial undecided squares hug the bottom row; amendment clears them
    assert adm.initial_undecided == tuple(sorted((i, 0) for i in range(4)))
    assert adm.exceptional == ()


def test_two_sided_constant_half_amended_to_empty():
    adm = two_sided_approx(constant_curve(Fraction(1, 2)), n_grid=2)
    assert adm.initial_undecided == ((0, 1), (1, 1))
    assert adm.exceptional == () and adm.admissible


def test_curve_estimate_diagonal_sandwich():
    for n_grid in (4, 16):
        adm = two_sided_approx(DIAG, n_grid=n_grid)
        est = curve_estimate(adm)
        assert est.error_bound == Fraction(1, n_grid)
        for i, x in enumerate(est.abscissae()):
            truth = Fraction(1) - x
            assert abs(est.upper_values[i] - truth) <= est.error_bound
            assert abs(est.lower_values[i] - truth) <= est.error_bound
        # each exceptional square's lower-left corner lies exactly on the line
        for corner in est.corner_points:
            assert corner.r + corner.delta == 1


def test_curve_estimate_constant_half():
    adm = two_sided_approx(constant_curve(Fraction(1, 2)), n_grid=2)
    est = curve_estimate(adm)
    for value in est.upper_values + est.lower_values:
        assert abs(value - Fraction(1, 2)) <= Fraction(1, 2)


def test_two_sided_vg_n32():
    curve = vg_bound_curve(2)
    adm = two_sided_approx(curve, n_grid=32)
    assert adm.admissible
    # exactly the two exact special points stay exceptional
    assert adm.exceptional == ((0, 16), (16, 0))
    est = curve_estimate(adm)
    slack = Fraction(1, 2 ** 20)
    for i, x in enumerate(est.abscissae()):
        iv = curve.eval(x, 21)
        assert est.upper_values[i] <= iv.hi + Fraction(1, 32) + slack
        assert est.upper_values[i] >= iv.lo - Fraction(1, 32) - slack
        assert est.lower_values[i] <= iv.hi + Fraction(1, 32) + slack
        assert est.lower_values[i] >= iv.lo - Fraction(1, 32) - slack


def test_domain_decider_requires_full_span():
    partial = synthetic_polyline([RatPoint.of(1, Fraction(1, 4)), RatPoint.of(0, Fraction(3, 4))])
    with pytest.raises(ContractViolationError):
        DomainBallDecider(partial)


def test_dense_point_presentation():
    point = RatPoint.of(Fraction(1, 2), Fraction(1, 2))
    pres = re_from_dense_points(lambda: iter([point] * 64))
    assert pres.advance(0) == []
    assert pres.progress == 0
    pres.advance(40)
    assert pres.progress == 40
    assert len(pres.emitted) > 0
    assert all(ball.contains(point) for ball in pres.emitted)
    # deterministic across fresh runs
    again = re_from_dense_points(lambda: iter([point] * 64))
    again.advance(40)
    assert [b.center for b in again.emitted] == [b.center for b in pres.emitted]


def test_dense_point_presentation_hits_target_ball():
    # stream the rate/distance points of a small cloud; a ball around the
    # length-7 dimension-4 distance-3 code point must appear once streamed
    from codeplane.search import enumerate_point_cloud

    cloud = enumerate_point_cloud(2, 7, strategies=("exhaustive-linear",))
    points = [e.point for e in cloud.entries]
    target = RatPoint.of(Fraction(4, 7), Fraction(3, 7))
    assert target in points

    idx_point = points.index(target)
    idx_ball = next(
        i for i in range(10_000) if canonical_ball(i).contains(target)
    )
    pres = re_from_dense_points(lambda: iter(points))
    pres.advance(max(idx_point, idx_ball) + 1)
    assert any(ball.contains(target) for ball in pres.emitted)


def test_curve_presentations_sound_and_disjoint():
    co = core_from_curve(DIAG)
    re_pres = re_from_curve(DIAG)
    co.advance(60)
    re_pres.advance(60)
    assert co.progress == 60
    keys = lambda pres: {(b.center.r, b.center.delta, b.radius) for b in pres.emitted}
    assert keys(co) and keys(re_pres)
    assert not keys(co) & keys(re_pres)
    # soundness against the exact line: co balls' closures miss it, re balls meet it
    for ball in co.emitted:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        a = max(d_iv.lo, Fraction(0))
        b = min(d_iv.hi, Fraction(1))
        if a > b:
            continue
        assert not (1 - a >= r_iv.lo and 1 - b <= r_iv.hi)
    for ball in re_pres.emitted:
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        a = max(d_iv.lo, Fraction(0))
        b = min(d_iv.hi, Fraction(1))
        assert 1 - a > r_iv.lo and 1 - b < r_iv.hi


def test_domain_presentations_sound():
    re_pres, co_pres = domain_presentations(DIAG)
    re_pres.advance(60)
    co_pres.advance(60)
    for ball in co_pres.emitted:  # closure misses U = {R <= 1 - delta}
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, Fraction(0))
        y0 = max(r_iv.lo, Fraction(0))
        if x0 > min(d_iv.hi, Fraction(1)) or y0 > min(r_iv.hi, Fraction(1)):
            continue  # never touches the unit square: vacuously disjoint
        assert 1 - x0 < y0
    for ball in re_pres.emitted:  # open rectangle meets the interior
        d_iv, r_iv = ball.delta_interval, ball.r_interval
        x0 = max(d_iv.lo, Fraction(0))
        assert 1 - x0 > max(r_iv.lo, Fraction(0))


# SHA-256 of each presentation's emissions over 5, 20 and 15 more stages,
# recorded when every presentation ran its own stage loop
_PRESENTATION_CURVES = {
    "diag": diagonal_curve,
    "vg2": lambda: vg_bound_curve(2),
    "partial": lambda: synthetic_polyline([RatPoint.of(1, Fraction(1, 4)), RatPoint.of(0, Fraction(3, 4))]),
    "third": lambda: constant_curve(Fraction(1, 3)),
}
_PRESENTATION_SHA256 = {
    ("core", "diag"): "c47f8a3e898b9375a779f943897a5bce8cd0c7cb516deb94554c93d28d2cfb10",
    ("re", "diag"): "1cf54ae19aaf8b965b409635f07b534d1a6bacc546aec8d92909c75daa85bf0d",
    ("domain_re", "diag"): "48975e124a0548f45226be8beb9d8691b1f8fc5a6580c029138f0b32823b5bf1",
    ("domain_co", "diag"): "00490f7d82d25e0e5720ec7c9bc50f6f46580b291c7a2f6bca9288b2ad5c723f",
    ("core", "vg2"): "2f1906c9b3060489785c4c6e5303a04196289d5f37ef79549719e93ee15a8450",
    ("re", "vg2"): "5c871013926a98c8889bb76d3810c8a6ac1bd5e6fcba50f96b6e77d68aa13624",
    ("domain_re", "vg2"): "6e7b05647e31dc2e2335901125f098d397ddad8ef8b154cedf9e878d191594a5",
    ("domain_co", "vg2"): "3dae94b54eb521afacf0161c1dedb966014d829acb3803ab4da0d0234162ab70",
    ("core", "partial"): "c381fac6bd72d8a3fa136c100ccd34228e2f02449eb82fd623de667884b6edf9",
    ("re", "partial"): "1cf54ae19aaf8b965b409635f07b534d1a6bacc546aec8d92909c75daa85bf0d",
    ("core", "third"): "aac45ca25fd9e87ded77b6d7f0643f706a03babc4ae90e70f9592d4241e43f15",
    ("re", "third"): "e4000ee69577fc279659955b8fdcc3180c1d540989eadee2ee1692b48c0d9e2f",
    ("domain_re", "third"): "5c871013926a98c8889bb76d3810c8a6ac1bd5e6fcba50f96b6e77d68aa13624",
    ("domain_co", "third"): "2172f6ab196302f904cd820eb08901b9482ea4fc5fc5564b3bf7de4621f11e1d",
    ("dense", "grid"): "48975e124a0548f45226be8beb9d8691b1f8fc5a6580c029138f0b32823b5bf1",
}

_DENSE_STAGEWISE_SHA256 = "14f2f8427a874dba51505f58ec45f7f02243db32639a6a4bcc67fc1108770332"


def _emission_digest(pres, steps=(5, 20, 15)) -> str:
    h = hashlib.sha256()
    for stages in steps:
        for b in pres.advance(stages):
            h.update(f"{b.center.r},{b.center.delta},{b.radius},{b.kind.value};".encode())
        h.update(b"|")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PRESENTATION_CURVES))
def test_presentation_emissions_are_pinned(name):
    make = _PRESENTATION_CURVES[name]
    got = {("core", name): _emission_digest(core_from_curve(make())),
           ("re", name): _emission_digest(re_from_curve(make()))}
    if name == "partial":
        with pytest.raises(ContractViolationError):  # domains need the full span
            domain_presentations(make())
    else:
        re_pres, co_pres = domain_presentations(make())
        got[("domain_re", name)] = _emission_digest(re_pres)
        got[("domain_co", name)] = _emission_digest(co_pres)
    assert got == {key: value for key, value in _PRESENTATION_SHA256.items() if key[1] == name}


def test_dense_point_emissions_are_pinned():
    points = [RatPoint(Fraction(i % 7, 7), Fraction(i % 5, 5)) for i in range(100)]
    pres = re_from_dense_points(lambda: iter(points))
    assert _emission_digest(pres) == _PRESENTATION_SHA256[("dense", "grid")]
    # stage by stage, from a stream that ends early: each stage sees exactly its prefix
    spread = [RatPoint(Fraction((7 * i) % 31, 31), Fraction(i, 31)) for i in range(31)]
    pres = re_from_dense_points(lambda: iter(spread))
    assert _emission_digest(pres, steps=(1,) * 45) == _DENSE_STAGEWISE_SHA256


def test_polyline_within():
    low = (RatPoint.of(0, 0), RatPoint.of(0, 1))
    high = (RatPoint.of(Fraction(1, 4), 0), RatPoint.of(Fraction(1, 4), 1))
    assert polyline_within(Fraction(1, 4), low, high)
    assert not polyline_within(Fraction(1, 8), low, high)
    with pytest.raises(ContractViolationError):
        polyline_within(Fraction(1), (RatPoint.of(0, 0), RatPoint.of(1, 1)), low)


def test_build_strip_timeout():
    from codeplane.errors import StabilizationTimeoutError

    class SlowCurve:
        name = "slow"
        continuous = True
        span = (Fraction(0), Fraction(1))

        def eval(self, delta, precision):
            time.sleep(0.002)
            return vg_bound_curve(2).eval(delta, precision)

    with pytest.raises(StabilizationTimeoutError) as err:
        build_strip(SlowCurve(), 16, timeout_ms=10)
    assert err.value.partial is not None


def test_strip_timeout_partial_holds_the_finished_columns(monkeypatch):
    from codeplane.errors import StabilizationTimeoutError

    now = [0.0]
    monkeypatch.setattr(effective.time, "monotonic", lambda: now[0])

    class LateCurve:
        """The diagonal, whose evaluations right of 1/2 take a second each."""
        name = "late"
        continuous = True
        span = (Fraction(0), Fraction(1))

        def eval(self, delta, precision):
            if delta > Fraction(1, 2):
                now[0] += 1.0
            return DIAG.eval(delta, precision)

    with pytest.raises(StabilizationTimeoutError) as err:
        build_strip(LateCurve(), 16, timeout_ms=500)
    # column 8 (from 1/2 to 9/16) finishes late; column 9 never starts
    columns = err.value.partial
    assert len(columns) == 9
    strip = build_strip(DIAG, 16)
    for i, segments in enumerate(columns):
        assert [lo for lo, _, _ in segments] == [0] + [hi + 1 for _, hi, _ in segments[:-1]]
        assert segments[-1][1] == 15
        members = [(lo, hi) for lo, hi, (dec,) in segments if dec is not Decision.DISJOINT]
        assert members == [strip.column_range(i)]


def _first_verdict(decide, base, cap):
    """First decisive verdict along base, doubling, clipped to the cap."""
    precision = base
    while True:
        verdict = decide(precision)
        if verdict is not Decision.UNKNOWN or precision >= cap:
            return verdict
        precision = min(cap, 2 * precision)


DIFFERENTIAL_CURVES = {
    "diag": lambda q: DIAG,
    "vg": vg_bound_curve,
    "gv_lower": gv_lower_curve,
    "hamming": hamming_curve,
    "constant": lambda q: constant_curve(Fraction(1, 3)),
}


# the default ladder settles every square here at its base rung; the short
# ladders escalate, clip the last rung to the cap (1, 2, 3) and cap (1, 2)
@pytest.mark.parametrize("ladder", [(DEFAULT_BASE_PRECISION, DEFAULT_PRECISION_CAP), (1, 2), (1, 3)])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CURVES))
def test_grid_algorithms_match_per_cell_brute_force(name, q, ladder):
    curve = DIFFERENTIAL_CURVES[name](q)
    graph, domain = GraphBallDecider(curve), DomainBallDecider(curve)
    for n_grid in range(1, 13):
        squares = [GridBall(n_grid, i, j) for i in range(n_grid) for j in range(n_grid)]
        on_graph = {(b.i, b.j): _first_verdict(lambda p: graph.decide_ball(b, p), *ladder) for b in squares}
        strip = build_strip(curve, n_grid, base_precision=ladder[0], precision_cap=ladder[1])
        assert strip.ball_set() == {c for c, v in on_graph.items() if v is not Decision.DISJOINT}
        assert strip.capped == tuple(sorted(c for c, v in on_graph.items() if v is Decision.UNKNOWN))

        u_plus = {(b.i, b.j) for b in squares
                  if _first_verdict(lambda p: domain.decide_closed(b, p), *ladder) is Decision.DISJOINT}
        u_minus = {(b.i, b.j) for b in squares
                   if _first_verdict(lambda p: domain.decide_open(b, p), *ladder) is Decision.INTERSECTS}
        undecided = sorted({(b.i, b.j) for b in squares} - u_plus - u_minus)

        def meets(cell, side):
            ball = GridBall(n_grid, *cell).to_ball()
            return any(balls_closures_intersect(ball, GridBall(n_grid, *o).to_ball()) for o in side)

        to_plus = {c for c in undecided if not meets(c, u_minus)}
        to_minus = {c for c in undecided if c not in to_plus and not meets(c, u_plus)}
        adm = two_sided_approx(curve, n_grid=n_grid, base_precision=ladder[0],
                               precision_cap=ladder[1], strict=False)
        assert adm.initial_undecided == tuple(undecided)
        assert adm.u_plus == u_plus | to_plus
        assert adm.u_minus == u_minus | to_minus
        assert adm.exceptional == tuple(c for c in undecided if c not in to_plus | to_minus)


def test_row_thresholds_are_exact_floors_and_ceilings():
    values = [Fraction(k, d) for k in range(-9, 10) for d in (1, 2, 3, 7, 64)]
    for n_grid in (1, 3, 16, 48):
        for x in values:
            assert effective._floor_times(x, n_grid) == math.floor(x * n_grid)
            assert effective._ceil_times(x, n_grid) == math.ceil(x * n_grid)


def test_assemble_strip_joins_adjacent_row_ranges_and_rejects_gaps():
    strip = effective._assemble_strip(4, {0: [(2, 2), (3, 3)], 1: [(0, 1), (2, 2)]}, ())
    assert strip.column_ranges == ((0, 2, 3), (1, 0, 2))
    with pytest.raises(InternalContractError, match="strip column 1 is not contiguous"):
        effective._assemble_strip(4, {0: [(2, 3)], 1: [(0, 0), (2, 2)]}, ())
    with pytest.raises(InternalContractError, match="strip columns are not contiguous"):
        effective._assemble_strip(4, {0: [(2, 3)], 2: [(0, 0)]}, ())


# --- the per-row sweep that the threshold sweep replaced ----------------------
# A word-for-word copy of the sweep, its two verdict lambdas, the strip
# assembly and the curve estimate as they decided every row with Fraction
# compares, and of the strip and estimate outputs as they were read from
# stored staircases, per-square GridBalls and a scan over the columns; and
# of the two-sided approximation as it kept U+, U- and X as square sets,
# amended them by neighbour lookups and read the estimate from them. The
# threshold sweep and the outputs derived from column ranges and bands
# must reproduce them byte for byte.

def _reference_sweep_columns(n_grid, column_verdicts, base_precision, precision_cap):
    cells = {}
    for i in range(n_grid):
        pending = range(n_grid)
        precision = base_precision
        while True:
            verdicts = column_verdicts(i, precision)
            for j in pending:
                cells[i, j] = verdicts(j)
            pending = [j for j in pending if Decision.UNKNOWN in cells[i, j]]
            if not pending or precision >= precision_cap:
                break
            precision = min(precision_cap, precision * 2)
    return cells


def _reference_staircase(columns, n_grid):
    n = Fraction(n_grid)
    verts = []

    def push(x, y):
        if verts and verts[-1] == RatPoint(y, x):
            return
        verts.append(RatPoint(y, x))

    first_i = columns[0][0]
    push(Fraction(first_i) / n, Fraction(columns[0][1]) / n)
    for (i, level), nxt in zip(columns, list(columns[1:]) + [None]):
        push(Fraction(i + 1) / n, Fraction(level) / n)
        if nxt is not None:
            push(Fraction(nxt[0]) / n, Fraction(nxt[1]) / n)
    return tuple(verts)


def _reference_values_staircase(values, n_grid):
    verts = []
    n = Fraction(n_grid)
    for i, value in enumerate(values):
        left = Fraction(i) / n
        right = Fraction(i + 1) / n
        if not verts or verts[-1].r != value:
            verts.append(RatPoint(value, left))
        verts.append(RatPoint(value, right))
    return tuple(verts)


@dataclass(frozen=True)
class _ReferenceStrip:
    n_grid: int
    column_ranges: tuple
    gamma_plus: tuple
    gamma_minus: tuple
    capped: tuple

    def ball_set(self):
        balls = [GridBall(self.n_grid, i, j) for i, lo, hi in self.column_ranges for j in range(lo, hi + 1)]
        return frozenset((b.i, b.j) for b in balls)

    def column_range(self, i):
        for col, lo, hi in self.column_ranges:
            if col == i:
                return lo, hi
        return None

    @property
    def end_segments(self):
        n = Fraction(self.n_grid)
        first_i, first_lo, first_hi = self.column_ranges[0]
        last_i, last_lo, last_hi = self.column_ranges[-1]
        left = (
            RatPoint(Fraction(first_lo) / n, Fraction(first_i) / n),
            RatPoint(Fraction(first_hi + 1) / n, Fraction(first_i) / n),
        )
        right = (
            RatPoint(Fraction(last_lo) / n, Fraction(last_i + 1) / n),
            RatPoint(Fraction(last_hi + 1) / n, Fraction(last_i + 1) / n),
        )
        return left, right

    def to_json(self):
        first, last = self.column_ranges[0], self.column_ranges[-1]
        return {
            "n_grid": self.n_grid,
            "balls": sorted([i, j] for (i, j) in self.ball_set()),
            "gamma_plus": [[format_rational(v.delta), format_rational(v.r)] for v in self.gamma_plus],
            "gamma_minus": [[format_rational(v.delta), format_rational(v.r)] for v in self.gamma_minus],
            "capped": sorted(list(pair) for pair in self.capped),
            "end_segments_degenerate": [first[1] == first[2], last[1] == last[2]],
        }


def _reference_classify_points(points, strip):
    n = strip.n_grid
    below, inside, above = [], [], []
    for p in points:
        if not p.in_unit_square():
            raise ContractViolationError(f"point {p} outside the unit square")
        scaled = p.delta * n
        exact_col = int(scaled) if scaled.denominator == 1 else None
        if exact_col is not None:
            cols = [c for c in (exact_col - 1, exact_col) if 0 <= c <= n - 1]
        else:
            cols = [int(scaled)]
        ranges = []
        for c in cols:
            rng = strip.column_range(c)
            if rng is None:
                raise ContractViolationError(
                    f"strip has no squares in column {c}; cannot classify"
                )
            ranges.append(rng)
        verdicts = []
        for lo, hi in ranges:
            if Fraction(lo, n) <= p.r <= Fraction(hi + 1, n):
                verdicts.append("inside")
            elif p.r < Fraction(lo, n):
                verdicts.append("below")
            else:
                verdicts.append("above")
        if "inside" in verdicts:
            inside.append(p)
        elif all(v == "below" for v in verdicts):
            below.append(p)
        elif all(v == "above" for v in verdicts):
            above.append(p)
        else:
            raise InternalContractError(f"mixed verdict for {p}: strip not connected?")
    return tuple(below), tuple(inside), tuple(above)


def _reference_assemble_strip(n_grid, members, capped):
    by_col = {}
    for i, j in members:
        by_col.setdefault(i, []).append(j)
    cols = sorted(by_col)
    if cols != list(range(cols[0], cols[-1] + 1)):
        raise InternalContractError("strip columns are not contiguous")
    ranges = []
    for i in cols:
        rows = sorted(by_col[i])
        if rows != list(range(rows[0], rows[-1] + 1)):
            raise InternalContractError(f"strip column {i} is not contiguous")
        ranges.append((i, rows[0], rows[-1]))
    for (i, lo, hi), (i2, lo2, hi2) in zip(ranges, ranges[1:]):
        if lo2 > hi + 1 or hi2 < lo - 1:
            raise InternalContractError(f"strip disconnected between columns {i} and {i2}")
    return _ReferenceStrip(n_grid=n_grid, column_ranges=tuple(ranges),
                           gamma_plus=_reference_staircase([(i, hi + 1) for i, lo, hi in ranges], n_grid),
                           gamma_minus=_reference_staircase([(i, lo) for i, lo, hi in ranges], n_grid),
                           capped=capped)


def _reference_strip(curve, n_grid, base_precision, precision_cap):
    decider = GraphBallDecider(curve)

    def column_verdicts(i, precision):
        ends = decider.ends(Fraction(i, n_grid), Fraction(i + 1, n_grid), precision)
        return lambda j: (decider.verdict(ends, Fraction(j, n_grid), Fraction(j + 1, n_grid)),)

    cells = _reference_sweep_columns(n_grid, column_verdicts, base_precision, precision_cap)
    capped = tuple(sorted(key for key, (dec,) in cells.items() if dec is Decision.UNKNOWN))
    members = {key for key, (dec,) in cells.items() if dec is not Decision.DISJOINT}
    if not members:
        return cells, "InternalContractError: no grid square meets the presented graph"
    return cells, _outcome(lambda: _reference_assemble_strip(n_grid, members, capped))


@dataclass(frozen=True)
class _ReferenceAdmissibleSet:
    n_grid: int
    u_plus: frozenset
    u_minus: frozenset
    exceptional: tuple
    initial_undecided: tuple
    admissible: bool

    def to_json(self):
        return {
            "n_grid": self.n_grid,
            "u_plus": sorted(list(p) for p in self.u_plus),
            "u_minus": sorted(list(p) for p in self.u_minus),
            "exceptional": [list(p) for p in self.exceptional],
            "initial_undecided": [list(p) for p in self.initial_undecided],
            "admissible": self.admissible,
        }


def _reference_check_admissible(cells):
    rows = [j for _, j in cells]
    cols = [i for i, _ in cells]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    ordered = sorted(cells)
    for (i1, j1), (i2, j2) in zip(ordered, ordered[1:]):
        if i2 > i1 and j2 >= j1:
            return False
    return True


def _reference_approx(curve, n_grid, base_precision, precision_cap):
    decider = DomainBallDecider(curve)

    def column_verdicts(i, precision):
        fa = decider.curve.eval(Fraction(i, n_grid), precision)
        return lambda j: (decider.closed_verdict(fa, Fraction(j, n_grid)),
                          decider.open_verdict(fa, Fraction(j, n_grid)))

    cells = _reference_sweep_columns(n_grid, column_verdicts, base_precision, precision_cap)
    u_plus = {c for c, (closed, _) in cells.items() if closed is Decision.DISJOINT}
    u_minus = {c for c, (_, open_) in cells.items() if open_ is Decision.INTERSECTS}
    initial_undecided = tuple(sorted(c for c in cells if c not in u_plus and c not in u_minus))

    def touches(cell, side):
        i, j = cell
        return any((i + di, j + dj) in side for di in (-1, 0, 1) for dj in (-1, 0, 1))

    u_minus_initial = frozenset(u_minus)
    u_plus_initial = frozenset(u_plus)
    remaining = []
    for cell in initial_undecided:
        if not touches(cell, u_minus_initial):
            u_plus.add(cell)
        elif not touches(cell, u_plus_initial):
            u_minus.add(cell)
        else:
            remaining.append(cell)
    exceptional = tuple(sorted(remaining))
    return cells, _ReferenceAdmissibleSet(
        n_grid=n_grid, u_plus=frozenset(u_plus), u_minus=frozenset(u_minus), exceptional=exceptional,
        initial_undecided=initial_undecided, admissible=_reference_check_admissible(exceptional))


def _reference_curve_estimate(adm):
    n = adm.n_grid
    tops = {}
    bots = {}
    for i, j in itertools.chain(adm.u_plus, adm.exceptional):
        tops[i] = min(j, tops.get(i, j))
    for i, j in adm.u_minus:
        bots[i] = max(j, bots.get(i, j))
    upper = tuple(Fraction(tops[i], n) if i in tops else Fraction(1) for i in range(n))
    lower = tuple(Fraction(bots[i] + 1, n) if i in bots else Fraction(0) for i in range(n))
    corners = tuple(RatPoint(Fraction(j, n), Fraction(i, n)) for i, j in sorted(adm.exceptional))
    return upper, lower, corners


_CLASSIFIED = set()


def _grid_probes(n_grid):
    """Every grid vertex (k/N, j/N) and every grid-edge midpoint."""
    return [RatPoint(Fraction(u, 2 * n_grid), Fraction(t, 2 * n_grid))
            for t in range(2 * n_grid + 1) for u in range(2 * n_grid + 1) if t % 2 == 0 or u % 2 == 0]


def _partition(points, strip):
    part = classify_points(points, strip)
    return part.below, part.inside, part.above


def _classified(classify, points, strip):
    """The partition of all points, or when that raises, each point's
    partition or error."""
    def one(batch):
        try:
            return classify(batch, strip)
        except (ContractViolationError, InternalContractError) as exc:
            return f"{type(exc).__name__}: {exc}"

    whole = one(points)
    return [one([p]) for p in points] if isinstance(whole, str) else [whole]


def _outcome(build):
    try:
        return build()
    except InternalContractError as exc:
        return f"InternalContractError: {exc}"


def _polyline(*points):
    """Polyline through (delta, R) vertices."""
    return synthetic_polyline([RatPoint.of(r, delta) for delta, r in points])


def _blurred(polyline):
    """Interval stand-in for an exact curve spanning [0, 1].

    Its enclosures are a few 2^-(p+3) wide around the polyline's values.
    Their ends lie on N-grid lines wherever the value does, for N a multiple
    of 2^(p+3). They are not nested from one precision to the next.
    """
    def evaluate(delta, precision):
        value = polyline.value_exact(delta)
        w = Fraction(1, 2 ** (precision + 3))
        if precision % 2:
            return RatInterval(value - w, value + 2 * w)
        return RatInterval(value - 3 * w, value + w)

    return BoundCurve("blurred " + polyline.name, evaluate)


_F = Fraction
THRESHOLD_CURVES = {
    **{f"{name}_q{q}": (lambda name=name, q=q: make(q))
       for name, make in (("vg", vg_bound_curve), ("gv_lower", gv_lower_curve),
                          ("hamming", hamming_curve)) for q in (2, 3)},
    "diag": lambda: DIAG,
    "constant_third": lambda: constant_curve(_F(1, 3)),
    "constant_half": lambda: constant_curve(_F(1, 2)),
    # vertices on the grid lines of N divisible by 4 or 8 (flat and steep pieces)
    "quarters": lambda: _polyline((0, 1), (_F(1, 4), _F(1, 2)), (_F(1, 2), _F(1, 2)),
                                  (_F(3, 4), _F(1, 4)), (1, 0)),
    "steep_eighth": lambda: _polyline((0, 1), (_F(1, 8), _F(1, 4)), (1, 0)),
    # vertices on the grid lines of N divisible by 3 or 6
    "thirds": lambda: _polyline((0, _F(3, 4)), (_F(1, 3), _F(2, 3)), (_F(2, 3), _F(1, 6)), (1, 0)),
    # slope -14 near 0: columns with decided rows between two undecided ranges
    "cliff": lambda: _polyline((0, 1), (_F(1, 16), _F(1, 8)), (1, 0)),
    **{f"blurred_{name}": (lambda make=make: _blurred(make()))
       for name, make in (("diag", lambda: DIAG),
                          ("quarters", lambda: THRESHOLD_CURVES["quarters"]()),
                          ("cliff", lambda: THRESHOLD_CURVES["cliff"]()))},
    # spans only [1/4, 3/4], so it has a graph but no domain
    "partial_span": lambda: _polyline((_F(1, 4), 1), (_F(3, 4), 0)),
}
THRESHOLD_GRIDS = (*range(1, 17), 31, 32, 48)


@pytest.mark.parametrize("ladder", [(DEFAULT_BASE_PRECISION, DEFAULT_PRECISION_CAP), (1, 2), (1, 3)])
@pytest.mark.parametrize("name", sorted(THRESHOLD_CURVES))
def test_threshold_sweep_matches_the_per_row_sweep(monkeypatch, name, ladder):
    # besides the outputs, every row's verdict tuple must equal the per-row
    # sweep's: a spy expands the column ranges each build swept into cells
    swept = []
    sweep = effective._sweep_columns

    def spy(*args):
        columns = sweep(*args)
        swept.append({(i, j): verdicts for i, segments in enumerate(columns)
                      for lo, hi, verdicts in segments for j in range(lo, hi + 1)})
        return columns

    monkeypatch.setattr(effective, "_sweep_columns", spy)
    curve = THRESHOLD_CURVES[name]()
    base, cap = ladder
    for n_grid in THRESHOLD_GRIDS:
        want_cells, want = _reference_strip(curve, n_grid, base, cap)
        got = _outcome(lambda: build_strip(curve, n_grid, base_precision=base, precision_cap=cap))
        assert swept.pop() == want_cells, n_grid
        if isinstance(want, str):
            assert got == want, n_grid
        else:
            assert got.to_json() == want.to_json(), n_grid
            assert got.capped == want.capped, n_grid
            assert got.end_segments == want.end_segments, n_grid
            columns = range(-1, n_grid + 1)
            assert [got.column_range(c) for c in columns] == [want.column_range(c) for c in columns], n_grid
            # both classifications read only N and the column ranges: probe each strip once
            if (n_grid, got.column_ranges) not in _CLASSIFIED:
                _CLASSIFIED.add((n_grid, got.column_ranges))
                probes = _grid_probes(n_grid)
                assert _classified(_partition, probes, got) == \
                    _classified(_reference_classify_points, probes, want), n_grid
        if name == "partial_span":
            continue
        want_cells, want = _reference_approx(curve, n_grid, base, cap)
        got = two_sided_approx(curve, n_grid=n_grid, base_precision=base, precision_cap=cap,
                               strict=False)
        assert swept.pop() == want_cells, n_grid
        assert got.to_json() == want.to_json(), n_grid
        assert (got.u_plus, got.u_minus, got.exceptional, got.initial_undecided, got.admissible) == \
            (want.u_plus, want.u_minus, want.exceptional, want.initial_undecided, want.admissible), n_grid
        estimate = curve_estimate(got)
        want_upper, want_lower, want_corners = _reference_curve_estimate(want)
        assert (estimate.upper_values, estimate.lower_values, estimate.corner_points) == \
            (want_upper, want_lower, want_corners), n_grid
        assert estimate.upper_polyline() == _reference_values_staircase(want_upper, n_grid), n_grid
        assert estimate.lower_polyline() == _reference_values_staircase(want_lower, n_grid), n_grid
