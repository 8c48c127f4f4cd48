"""Acceptance suite: every criterion prints one PASS line with its runtime.

Criteria 2, 3, 7, 8 produce canonical CSV text; criterion 9 re-runs them
with identical seeds and checks the bytes match. Each criterion asserts its
stated runtime budget, so a pathological slowdown fails loudly rather than
silently degrading.
"""

import math
import random
import time
from fractions import Fraction

from codeplane.bounds import diagonal_curve, vg_bound_curve, vg_curve
from codeplane.codes import Code, code_point, floor_log_q, min_distance, params
from codeplane.effective import build_strip, classify_points, curve_estimate, two_sided_approx
from codeplane.geometry import RatPoint, max_distance
from codeplane.linear import seed_family, to_code
from codeplane.search import SearchBudget, best_min_distance, random_ensemble
from codeplane.spoiling import (
    LENGTHEN_LIMIT,
    lengthen,
    multiplicity_witness,
    puncture,
    realize_point,
    replay_trace,
    shorten,
)

_SEED = 20250808
_results: dict[str, str] = {}


def _report(number: int, elapsed: float, limit: float, detail: str):
    status = "PASS" if elapsed < limit else "SLOW"
    print(f"[criterion {number}] {status} ({elapsed:.2f}s < {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_vg_endpoints_and_value():
    start = time.monotonic()
    at_zero = vg_curve(2, Fraction(0), 30)
    assert at_zero.is_point and at_zero.lo == Fraction(1, 2)
    for q in (2, 3, 4):
        edge = vg_curve(q, Fraction(q - 1, q), 30)
        assert edge.is_point and edge.lo == 0
    iv = vg_curve(2, Fraction(1, 4), 40)
    # independent high-precision oracle: double-precision entropy evaluation
    oracle = (1 - (-0.25 * math.log2(0.25) - 0.75 * math.log2(0.75))) / 2
    assert abs(oracle - 0.094361) < 5e-7
    assert abs(float(iv.lo) - oracle) < 1e-6 and abs(float(iv.hi) - oracle) < 1e-6
    _report(1, time.monotonic() - start, 1.0, "VG endpoints exact, value at 1/4 within 1e-6")


def _random_code(rng):
    q = rng.choice([2, 3, 4])
    n = rng.randrange(1, 13)
    m_target = rng.randrange(1, min(q ** n, 64) + 1)
    words = set()
    while len(words) < m_target:
        words.add(bytes(rng.randrange(q) for _ in range(n)))
    return Code.from_words(q, words)


def _run_criterion_2() -> str:
    rng = random.Random(_SEED)
    rows = ["q,n,m,d,op,n2,m2,d2"]
    for _ in range(1000):
        code = _random_code(rng)
        before = params(code)

        after = params(lengthen(code))  # exhaustive recomputation inside params
        assert after.triple() == (before.n + 1, before.m, before.d)
        rows.append(f"{before.q},{before.n},{before.m},{before.d},lengthen,"
                    f"{after.n},{after.m},{after.d}")

        if before.n > 1 and before.d >= 2:
            after = params(puncture(code))
            assert after.triple() == (before.n - 1, before.m, before.d - 1)
            rows.append(f"{before.q},{before.n},{before.m},{before.d},puncture,"
                        f"{after.n},{after.m},{after.d}")

        if before.n > 1 and before.m >= 2:
            after = params(shorten(code))
            assert after.n == before.n - 1
            assert Fraction(before.m, before.q) <= after.m < before.m
            assert after.d >= before.d or after.m == 1
            rows.append(f"{before.q},{before.n},{before.m},{before.d},shorten,"
                        f"{after.n},{after.m},{after.d}")
    return "\n".join(rows) + "\n"


def test_criterion_2_spoiling_laws():
    start = time.monotonic()
    _results["crit2"] = _run_criterion_2()
    _report(2, time.monotonic() - start, 60.0,
            "1000 seeded codes, zero violations of the three parameter laws")


def _run_criterion_3() -> str:
    outputs = realize_point((1, 8, 1), q=2, count=5,
                            budget=SearchBudget(rng_seed=_SEED))
    target = RatPoint.of(Fraction(1, 8), Fraction(1, 8))
    rows = ["a,n,m,d"]
    for a, realized in enumerate(outputs, start=1):
        p = realized.params
        assert p.n == 8 * a and p.d == a
        assert floor_log_q(p.m, 2) == a
        assert realized.point == target
        replayed = replay_trace(realized.trace, realized.seed)
        assert params(replayed) == p
        rows.append(f"{a},{p.n},{p.m},{p.d}")
    return "\n".join(rows) + "\n"


def test_criterion_3_realize_point():
    start = time.monotonic()
    _results["crit3"] = _run_criterion_3()
    _report(3, time.monotonic() - start, 60.0,
            "five realized codes at (1/8, 1/8), traces replay")


def test_criterion_4_multiplicity_witnesses():
    start = time.monotonic()
    for code in (
        to_code(seed_family("hamming_7_4")),
        Code.from_words(2, [b"\x00\x00\x00", b"\x01\x01\x01"]),
        Code.from_words(3, [b"\x00\x01", b"\x01\x02", b"\x02\x00"]),
        Code.from_words(2, [bytes(5)]),
    ):
        witnesses = multiplicity_witness(code, 20)
        triples = [params(w).triple() for w in witnesses]
        assert len(set(triples)) == 20
        dists = [max_distance(code_point(params(w)), LENGTHEN_LIMIT) for w in witnesses]
        base = code_point(params(code))
        for a, b in zip(dists, dists[1:]):
            if base == LENGTHEN_LIMIT:
                assert a == b == 0
            else:
                assert a > b
    _report(4, time.monotonic() - start, 1.0,
            "20 distinct witnesses per base, exact monotone convergence")


def test_criterion_5_strip_machinery():
    start = time.monotonic()
    diag = diagonal_curve()
    rng = random.Random(_SEED)
    for n_grid in (4, 16, 64):
        strip = build_strip(diag, n_grid)
        assert strip.boundary_within(Fraction(2, n_grid))
        if n_grid == 4:
            assert set(strip.cells()) == {
                (i, j) for i in range(4) for j in range(4) if i + j in (2, 3, 4)
            }
        points = [
            RatPoint.of(Fraction(rng.randrange(0, 98), 97), Fraction(rng.randrange(0, 98), 97))
            for _ in range(100)
        ]
        part = classify_points(points, strip)
        for p in part.below:
            assert p.r + p.delta < 1
        for p in part.above:
            assert p.r + p.delta > 1
    _report(5, time.monotonic() - start, 10.0,
            "diagonal strips at N=4,16,64 exact; 100 points, zero side disagreements")


def test_criterion_6_exceptional_balls():
    start = time.monotonic()
    diag = diagonal_curve()
    for n_grid in (4, 16):
        adm = two_sided_approx(diag, n_grid=n_grid)
        assert adm.admissible
        est = curve_estimate(adm)
        for i, x in enumerate(est.abscissae()):
            truth = Fraction(1) - x
            assert abs(est.upper_values[i] - truth) <= Fraction(1, n_grid)
            assert abs(est.lower_values[i] - truth) <= Fraction(1, n_grid)
    curve = vg_bound_curve(2)
    adm = two_sided_approx(curve, n_grid=32)
    assert adm.admissible
    est = curve_estimate(adm)
    slack = Fraction(1, 2 ** 20)
    for i, x in enumerate(est.abscissae()):
        iv = curve.eval(x, 21)
        assert iv.width <= slack
        for value in (est.upper_values[i], est.lower_values[i]):
            assert value <= iv.hi + Fraction(1, 32) + slack
            assert value >= iv.lo - Fraction(1, 32) - slack
    _report(6, time.monotonic() - start, 30.0,
            "admissible staircases; diagonal within 1/N, VG within 1/32 + 2^-20")


def _run_criterion_7() -> str:
    budget = SearchBudget(max_nodes=5_000_000, rng_seed=_SEED)
    table: dict[tuple[int, int], int] = {}
    rows = ["n,k,d"]
    for n in range(1, 9):
        for k in range(1, min(4, n) + 1):
            outcome = best_min_distance(2, n, 2 ** k, budget, linear=True)
            assert outcome.exact
            table[(n, k)] = outcome.d
            rows.append(f"{n},{k},{outcome.d}")
    assert table[(7, 4)] == 3
    assert table[(8, 4)] == 4

    # spoiling outputs inside the table range never beat the oracle
    rng = random.Random(_SEED + 1)
    checked = 0
    for _ in range(300):
        q = 2
        n = rng.randrange(2, 10)
        m_target = rng.randrange(2, min(2 ** n, 64) + 1)
        words = set()
        while len(words) < m_target:
            words.add(bytes(rng.randrange(q) for _ in range(n)))
        code = Code.from_words(q, words)
        for op in (lengthen, puncture, shorten):
            p = params(code)
            if op is puncture and (p.d < 2 or p.n <= 1):
                continue
            if op is shorten and (p.m < 2 or p.n <= 1):
                continue
            out = params(op(code))
            k = floor_log_q(out.m, 2)
            if out.n <= 8 and 1 <= k <= 4 and out.m == 2 ** k and out.d > 0:
                assert out.d <= table[(out.n, k)], (out, table[(out.n, k)])
                checked += 1
    assert checked > 50
    return "\n".join(rows) + "\n"


def test_criterion_7_oracle_table():
    start = time.monotonic()
    _results["crit7"] = _run_criterion_7()
    _report(7, time.monotonic() - start, 120.0,
            "systematic table reproduces d(7,4)=3 and d(8,4)=4; spoiling never beats it")


def _run_criterion_8() -> str:
    ensemble = random_ensemble(2, 64, 256, trials=200, budget=SearchBudget(rng_seed=_SEED))
    rows = ["trial,d"]
    total = 0
    for idx, (_code, d) in enumerate(ensemble):
        rows.append(f"{idx},{d}")
        total += d
    mean_delta = total / (200 * 64)
    # independent oracle: bisect (1 - H2(x))/2 = 1/8 in floats
    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    lo, hi = 1e-9, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if (1 - h2(mid)) / 2 > 0.125:
            lo = mid
        else:
            hi = mid
    delta_star = (lo + hi) / 2
    assert abs(delta_star - 0.2145) < 5e-4
    # finite-size bias at n = 64 is about +0.033: the pair-independence model
    # puts E[min]/n at 0.2474, and observed means sit within 0.003 of it;
    # the 0.05 tolerance covers the bias with margin
    assert abs(mean_delta - delta_star) <= 0.05, (mean_delta, delta_star)
    return "\n".join(rows) + "\n"


def test_criterion_8_erosion_statistics():
    start = time.monotonic()
    _results["crit8"] = _run_criterion_8()
    _report(8, time.monotonic() - start, 120.0,
            "mean minimum-distance ratio within 0.05 of the random-coding root 0.2145")


def test_criterion_9_determinism():
    start = time.monotonic()
    reruns = {
        "crit2": _run_criterion_2,
        "crit3": _run_criterion_3,
        "crit7": _run_criterion_7,
        "crit8": _run_criterion_8,
    }
    for name, runner in reruns.items():
        first = _results.get(name)
        if first is None:
            first = runner()
        second = runner()
        assert first.encode() == second.encode(), f"{name} is not byte-deterministic"
    _report(9, time.monotonic() - start, 240.0,
            "criteria 2, 3, 7, 8 reproduce byte-identical CSV under identical seeds")
