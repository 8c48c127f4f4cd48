"""Cross-module property tests on randomized inputs.

Random strictly decreasing polylines are exactly decidable stand-ins, so
every grid-machinery invariant can be checked against ground truth; random
realizable targets exercise the full realize pipeline.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from codeplane.bounds import PolylineCurve
from codeplane.codes import code_point, params
from codeplane.effective import build_strip, classify_points, curve_estimate, two_sided_approx
from codeplane.geometry import RatPoint
from codeplane.search import SearchBudget
from codeplane.spoiling import LENGTHEN, PUNCTURE, realize_point, replay_trace


@st.composite
def strictly_decreasing_polylines(draw):
    """Full-span polylines with strictly decreasing rates; small denominators
    make grid-aligned (exceptional) contacts common."""
    k = draw(st.integers(0, 3))
    inner = sorted(
        draw(
            st.lists(
                st.fractions(min_value="1/16", max_value="15/16", max_denominator=16),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    deltas = [Fraction(0)] + inner + [Fraction(1)]
    rates = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=16),
            min_size=len(deltas),
            max_size=len(deltas),
            unique=True,
        )
    )
    rates = sorted(rates, reverse=True)
    return PolylineCurve([RatPoint(r, d) for r, d in zip(rates, deltas)])


@given(strictly_decreasing_polylines(), st.sampled_from([2, 3, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_strip_matches_exact_membership(curve, n_grid):
    strip = build_strip(curve, n_grid)
    members = set(strip.cells())
    for i in range(n_grid):
        x0 = Fraction(i, n_grid)
        x1 = Fraction(i + 1, n_grid)
        fa = curve.value_exact(x0)
        fb = curve.value_exact(x1)
        for j in range(n_grid):
            y0 = Fraction(j, n_grid)
            y1 = Fraction(j + 1, n_grid)
            # ground truth for a continuous non-increasing curve
            assert (((i, j) in members) == (fa >= y0 and fb <= y1))


@given(strictly_decreasing_polylines(), st.sampled_from([2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_two_sided_invariants_on_random_monotone_domains(curve, n_grid):
    adm = two_sided_approx(curve, n_grid=n_grid)
    # strictly decreasing input guarantees an admissible exceptional set
    assert adm.admissible
    # every exceptional square's lower-left corner lies exactly on the curve
    est = curve_estimate(adm)
    for corner in est.corner_points:
        assert curve.value_exact(corner.delta) == corner.r
    # staircases within 1/N of the curve at every column abscissa
    for i, x in enumerate(est.abscissae()):
        truth = curve.value_exact(x)
        assert abs(est.upper_values[i] - truth) <= est.error_bound
        assert abs(est.lower_values[i] - truth) <= est.error_bound


@given(strictly_decreasing_polylines(), st.data())
@settings(max_examples=40, deadline=None)
def test_classification_agrees_with_exact_curve_side(curve, data):
    n_grid = data.draw(st.sampled_from([4, 8]))
    strip = build_strip(curve, n_grid)
    points = [
        RatPoint(
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=97)),
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=97)),
        )
        for _ in range(10)
    ]
    part = classify_points(points, strip)
    for p in part.below:
        assert p.r < curve.value_exact(p.delta)
    for p in part.above:
        assert p.r > curve.value_exact(p.delta)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_realize_point_random_targets(data):
    # keep targets comfortably inside the reachable region: rate at most a
    # quarter and relative distance at most a half, so greedy seeds exist at
    # every requested level (a point with delta > 1/2 would be correctly
    # rejected with SeedNotFoundError: nothing lives above the zero region)
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, max(1, n // 4)))
    d = data.draw(st.integers(1, max(1, n // 2)))
    count = data.draw(st.integers(1, 2))
    outputs = realize_point((k, n, d), q=2, count=count,
                            budget=SearchBudget(rng_seed=7, max_nodes=200_000))
    target = RatPoint(Fraction(k, n), Fraction(d, n))
    triples = set()
    for a, rc in enumerate(outputs, start=1):
        # the greedy seed already has the level's length and exactly 2**(a*k)
        # words, so the trace only walks the distance down
        assert (rc.seed.n, rc.seed.m) == (a * n, 2 ** (a * k))
        kinds = [step.kind for step in rc.trace.steps]
        assert kinds == [PUNCTURE, LENGTHEN] * (len(kinds) // 2)
        assert rc.point == target
        assert code_point(rc.params) == target
        triples.add(rc.params.triple())
        assert params(replay_trace(rc.trace, rc.seed)) == rc.params
    assert len(triples) == len(outputs)


def test_realize_point_unreachable_target_reports_seed_failure():
    # (1/4, 3/4) sits above the zero region: no second-level seed can exist
    import pytest

    from codeplane.errors import SeedNotFoundError

    with pytest.raises(SeedNotFoundError) as err:
        realize_point((1, 4, 3), q=2, count=2, budget=SearchBudget(rng_seed=7))
    assert err.value.search_log
