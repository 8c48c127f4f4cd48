import hashlib
import itertools
import math
import random
import sys
import time
import types
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import pytest

from codeplane import kernels, search, spoiling
from codeplane.codes import Code, CodeParams, min_distance, params, write_code_text
from codeplane.errors import ContractViolationError
from codeplane.geometry import RatPoint
from codeplane.fields import GF
from codeplane.linear import GeneratorMatrix, LinearCode, seed_family, to_code, write_generator_text
from codeplane.search import (
    DEFAULT_SEED,
    ExistsStatus,
    MultiplicityReport,
    OracleOutcome,
    OracleStatus,
    SearchBudget,
    best_min_distance,
    enumerate_point_cloud,
    exists_code,
    greedy_code,
    multiplicity_in_range,
    random_ensemble,
)


def _int_to_word(value: int, q: int, n: int) -> bytes:
    """Reference word codec: base-q digits of value, most significant first."""
    digits = bytearray(n)
    for pos in range(n - 1, -1, -1):
        digits[pos] = value % q
        value //= q
    return bytes(digits)


def test_exists_examples():
    out = exists_code(2, 3, 2, 3)
    assert out.found and params(out.witness).triple() == (3, 2, 3)
    out = exists_code(2, 3, 4, 3)
    assert out.status is ExistsStatus.IMPOSSIBLE
    out = exists_code(2, 20, 2 ** 10, 6, SearchBudget(max_nodes=10, max_millis=1000))
    assert out.status is ExistsStatus.UNKNOWN


def test_exists_returns_exact_distance_witness():
    # the best code has larger distance; the witness must be walked down to d
    out = exists_code(2, 4, 2, 2)
    assert out.found
    assert params(out.witness).triple() == (4, 2, 2)


def test_exists_soundness_for_constructed_codes():
    for code in (
        to_code(seed_family("hamming_7_4")),
        to_code(seed_family("parity", n=4, q=2)),
        Code.from_words(3, [b"\x00\x00", b"\x01\x02", b"\x02\x01"]),
    ):
        p = params(code)
        out = exists_code(p.q, p.n, p.m, p.d)
        assert out.found


def test_exists_rejects_malformed():
    with pytest.raises(ContractViolationError):
        exists_code(2, 3, 2, 0)
    with pytest.raises(ContractViolationError):
        exists_code(2, 3, 9, 1)


def test_best_min_distance_examples():
    assert best_min_distance(2, 4, 4, linear=True).d == 2
    assert best_min_distance(2, 3, 2).d == 3
    assert best_min_distance(2, 7, 16, linear=True).d == 3
    assert best_min_distance(2, 8, 16, linear=True).d == 4
    out = best_min_distance(2, 6, 4)
    assert out.exact and out.d == 4  # A(6,4) = 4: pairs of complementary halves
    assert params(out.witness).d == out.d


def test_best_min_distance_antitone_in_cardinality():
    previous = None
    for m in (2, 4, 8, 16):
        out = best_min_distance(2, 6, m)
        assert out.exact
        if previous is not None:
            assert out.d <= previous
        previous = out.d


def test_best_linear_generic_field():
    out = best_min_distance(3, 4, 9, linear=True)
    assert out.exact and out.d == 3  # the ternary tetracode [4, 2, 3]
    with pytest.raises(ContractViolationError):
        best_min_distance(2, 4, 6, linear=True)


def test_greedy_examples():
    assert greedy_code(2, 4, 4).m >= 2
    out = greedy_code(2, 8, 3)
    assert out.m >= 16
    d, _ = min_distance(out)
    assert d >= 3
    assert greedy_code(2, 2, 1).m == 4
    capped = greedy_code(2, 12, 3, target_m=8)
    assert capped.m == 8


def test_greedy_deterministic():
    a = greedy_code(2, 10, 3, SearchBudget(rng_seed=5))
    b = greedy_code(2, 10, 3, SearchBudget(rng_seed=5))
    c = greedy_code(2, 10, 3, SearchBudget(rng_seed=6))
    assert a.words == b.words
    assert a.words != c.words


def test_random_ensemble_examples():
    trials = random_ensemble(2, 16, 8, trials=5, budget=SearchBudget(rng_seed=77))
    again = random_ensemble(2, 16, 8, trials=5, budget=SearchBudget(rng_seed=77))
    assert [(c.words, d) for c, d in trials] == [(c.words, d) for c, d in again]
    assert all(min_distance(c)[0] == d for c, d in trials)
    assert random_ensemble(2, 6, 1, trials=3)[0][1] == 0
    assert all(d == 1 for _, d in random_ensemble(2, 3, 8, trials=3))


class _PastTheCap(Exception):
    pass


def _refuse_to_draw(*args, **kwargs):
    raise _PastTheCap


@pytest.mark.parametrize("n, m", [(20, 1 << 20), (21, 1 << 20)])  # full space, sampled
def test_random_ensemble_accepts_the_cap(monkeypatch, n, m):
    # the words of 2^20 codewords and their O(m^2) distance pass are not
    # needed to see the cardinality pass the check: stop at the first draw
    monkeypatch.setattr(search, "_word_rows", _refuse_to_draw)
    monkeypatch.setattr(search, "_draw_words", _refuse_to_draw)
    with pytest.raises(_PastTheCap):
        random_ensemble(2, n, m, trials=1)


@pytest.mark.parametrize("n, m", [(21, 1 << 21), (21, (1 << 20) + 1), (40, (1 << 40) - 1)])
def test_random_ensemble_refuses_more_words_than_the_cap(monkeypatch, n, m):
    monkeypatch.setattr(search, "_word_rows", _refuse_to_draw)
    monkeypatch.setattr(search, "_draw_words", _refuse_to_draw)
    with pytest.raises(ContractViolationError):
        random_ensemble(2, n, m, trials=1)


@pytest.mark.parametrize("q, n, m", [(2, 5, 20), (3, 4, 10), (7, 3, 40), (256, 2, 300), (2, 70, 5),
                                     (5, 30, 7)])
def test_distance_one_witness_is_the_first_m_words(q, n, m):
    out = exists_code(q, n, m, 1)
    assert out.found and out.nodes == 0
    assert out.witness.words == tuple(_int_to_word(v, q, n) for v in range(m))


def test_distance_one_witness_refuses_more_words_than_the_cap(monkeypatch):
    monkeypatch.setattr(search, "_SPACE_CAP", 16)
    assert exists_code(2, 40, 16, 1).witness.m == 16
    with pytest.raises(ContractViolationError):
        exists_code(2, 40, 17, 1)
    assert exists_code(2, 40, 17, 2).status is ExistsStatus.UNKNOWN  # q^n > cap, as before


def test_point_cloud_contents():
    cloud = enumerate_point_cloud(2, 8, strategies=("exhaustive-linear",))
    assert (7, 16, 3) in cloud.triples()
    assert RatPoint.of(Fraction(4, 7), Fraction(3, 7)) in cloud.points()
    cloud4 = enumerate_point_cloud(2, 4, strategies=("exhaustive", "seeded-family"))
    assert (3, 2, 3) in cloud4.triples()  # repetition
    assert all(e.point.in_unit_square() for e in cloud4.entries)
    assert all(e.params.n <= 4 or e.provenance != "exhaustive" for e in cloud4.entries)


def test_point_cloud_deduplicates_by_triple():
    cloud = enumerate_point_cloud(2, 4, strategies=("greedy", "exhaustive"))
    triples = [e.params.triple() for e in cloud.entries]
    assert len(triples) == len(set(triples))
    with pytest.raises(ContractViolationError):
        enumerate_point_cloud(2, 4, strategies=("nonesuch",))



@pytest.mark.parametrize("q, n_max, codes", [(2, 8, 21), (3, 5, 12)])
def test_random_cloud_measures_each_drawn_code_once(monkeypatch, q, n_max, codes):
    calls = []
    original = kernels.min_pairwise

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "min_pairwise", counted)
    monkeypatch.setattr(search, "min_pairwise", counted)
    enumerate_point_cloud(q, n_max, ("random",))
    # three trials for each length 2..n_max, one distance pass each
    assert len(calls) == codes == 3 * (n_max - 1)


def _reference_cloud_seeded(q, n_max, budget, add):
    """The seeded-family closure that measures every child it pops."""
    seeds = []
    for n in range(1, n_max + 1):
        seeds.append(to_code(seed_family("repetition", n=n, q=q)))
        if n >= 2 and q ** (n - 1) <= 4096:
            seeds.append(to_code(seed_family("parity", n=n, q=q)))
    if q == 2 and n_max >= 7:
        seeds.append(to_code(seed_family("hamming_7_4")))
    if q == 2 and n_max >= 8:
        seeds.append(to_code(seed_family("extended_hamming_8_4")))
    frontier = [c for c in seeds if c.n <= n_max]
    visited = set()
    expansions = 0
    while frontier and expansions < search._CLOSURE_CAP:
        code = frontier.pop()
        p = params(code)
        if p.triple() in visited:
            continue
        visited.add(p.triple())
        add(p, "seeded-family")
        expansions += 1
        if code.n < n_max:
            frontier.append(spoiling.lengthen(code))
        if code.n > 1 and p.d >= 2:
            frontier.append(spoiling.puncture(code))
        if code.n > 1 and p.m > q:
            frontier.append(spoiling.shorten(code))


@pytest.mark.parametrize("q,n_max", [(q, n_max) for q in (2, 3) for n_max in range(1, 9)])
def test_seeded_closure_takes_lengthen_and_puncture_triples_from_their_laws(monkeypatch, q, n_max):
    built = []
    for name in ("lengthen", "puncture"):
        def recorded(code, _move=getattr(spoiling, name), _name=name):
            child = _move(code)
            built.append((_name, code, child))
            return child

        monkeypatch.setattr(spoiling, name, recorded)
    added = []
    search._cloud_seeded(q, n_max, SearchBudget(), lambda p, tag: added.append((p, tag)))
    monkeypatch.undo()
    expected = []
    _reference_cloud_seeded(q, n_max, SearchBudget(), lambda p, tag: expected.append((p, tag)))
    assert added == expected
    for name, code, child in built:
        p = params(code)
        law = (p.n + 1, p.m, p.d) if name == "lengthen" else (p.n - 1, p.m, p.d - 1)
        assert params(child).triple() == law

def test_multiplicity_examples():
    report = multiplicity_in_range(RatPoint.of(0, 0), 2, 6)
    assert report.count == 6  # one singleton per length
    report = multiplicity_in_range(RatPoint.of(1, 1), 2, 4)
    assert report.count == 1
    assert report.verified[0].triple() == (1, 2, 1)
    report = multiplicity_in_range(
        RatPoint.of(Fraction(1, 2), Fraction(1, 2)), 2, 8,
        SearchBudget(max_nodes=60_000),
    )
    assert report.count >= 2
    assert any(p.triple() == (2, 2, 1) for p in report.verified)
    # every verified triple maps exactly to the queried point
    from codeplane.codes import code_point

    for p in report.verified:
        assert code_point(p) == RatPoint.of(Fraction(1, 2), Fraction(1, 2))


def _reference_multiplicity_in_range(point, q, n_max, budget):
    """multiplicity_in_range as it decided every triple, d = 1 included, with
    exists_code, on one meter for the whole query."""
    meter = search._Meter(budget)
    verified = []
    unknown = []
    for n in range(1, n_max + 1):
        rate_num = point.r * n
        dist_num = point.delta * n
        if rate_num.denominator != 1 or dist_num.denominator != 1:
            continue
        t = int(rate_num)
        d = int(dist_num)
        if d == 0:
            if t == 0:
                verified.append(CodeParams(q=q, n=n, m=1, d=0))
            continue
        if t > n or d > n:
            continue
        m_lo = q ** t
        m_hi = min(q ** (t + 1) - 1, q ** n)
        for m in range(m_lo, m_hi + 1):
            if m == 1:
                continue
            outcome = exists_code(q, n, m, d, budget, meter=meter)
            if outcome.found:
                verified.append(CodeParams(q=q, n=n, m=m, d=d))
            elif outcome.status is ExistsStatus.UNKNOWN:
                unknown.append((n, m, d))
            else:
                break
    return MultiplicityReport(point=point, verified=tuple(verified), unknown=tuple(unknown))


def test_multiplicity_decides_distance_one_without_the_oracle(monkeypatch):
    budget = SearchBudget(max_nodes=200)
    # every point with denominators up to n_max; q = 3 stops at 4, where the
    # distance >= 2 searches are still fast
    want = {(RatPoint(Fraction(t, n), Fraction(d, n)), q, n_max): None
            for q, n_max in ((2, 6), (3, 4)) for n in range(1, n_max + 1)
            for t in range(n + 1) for d in range(n + 1)}
    for key in want:
        want[key] = _reference_multiplicity_in_range(*key, budget)
    exists = search.exists_code

    def exists_beyond_distance_one(q, n, m, d, *args, **kwargs):
        assert d != 1, "a distance-1 triple reached the existence oracle"
        return exists(q, n, m, d, *args, **kwargs)

    monkeypatch.setattr(search, "exists_code", exists_beyond_distance_one)
    assert {key: multiplicity_in_range(*key, budget) for key in want} == want
    start = time.perf_counter()
    report = multiplicity_in_range(RatPoint.of(Fraction(3, 4), Fraction(1, 16)), 2, 16)
    assert time.perf_counter() - start < 1.0
    assert report.count == 4096 and not report.unknown
    # witnesses of more than 2^20 words stay refused, as exists_code refuses them
    with pytest.raises(ContractViolationError, match="exceeds"):
        multiplicity_in_range(RatPoint.of(Fraction(21, 25), Fraction(1, 25)), 2, 25)


@pytest.mark.parametrize("max_nodes", [200, 1000])
def test_multiplicity_budget_caps_the_whole_query(monkeypatch, max_nodes):
    # the 16 searches at (2/3, 1/3) take 360 nodes together and at most 30 each
    outcomes = []
    exists = search.exists_code

    def recorded(*args, **kwargs):
        outcomes.append(exists(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(search, "exists_code", recorded)
    report = multiplicity_in_range(RatPoint.of(Fraction(2, 3), Fraction(1, 3)), 2, 6,
                                   SearchBudget(max_nodes=max_nodes))
    # the search that ran the meter out is charged the node it was refused
    refused = sum(outcome.reason == "budget" for outcome in outcomes)
    assert refused <= 1
    assert sum(outcome.nodes for outcome in outcomes) - refused <= max_nodes
    assert bool(report.unknown) == (max_nodes < 360)
    assert report.count == (14 if max_nodes < 360 else 20)


def test_multiplicity_stops_at_the_first_impossible_size():
    # m = 243 takes 1,170 nodes and m = 244 is IMPOSSIBLE after 121, which
    # settles m = 245..728 too; searching each of them took about 17 s
    point = RatPoint.of(Fraction(5, 6), Fraction(1, 3))
    start = time.perf_counter()
    report = multiplicity_in_range(point, 3, 6, SearchBudget(max_nodes=2000))
    assert time.perf_counter() - start < 1.0
    assert report.verified == (CodeParams(q=3, n=6, m=243, d=2),) and report.unknown == ()
    # at 200 nodes m = 243 spends the query's budget, and the sizes after it
    # are unknown without a search each
    start = time.perf_counter()
    report = multiplicity_in_range(point, 3, 6, SearchBudget(max_nodes=200))
    assert time.perf_counter() - start < 1.0
    assert report.verified == () and report.unknown == tuple((6, m, 2) for m in range(243, 729))


def test_budget_dataclass_validation():
    with pytest.raises(ContractViolationError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ContractViolationError):
        SearchBudget(max_millis=0)
    assert SearchBudget().rng_seed == DEFAULT_SEED


def test_one_meter_stops_every_long_loop(monkeypatch):
    from codeplane.bounds import vg_bound_curve
    from codeplane.effective import build_strip, two_sided_approx
    from codeplane.errors import BudgetExceededError

    # a clock that moves a second per reading spends a 1 ms budget at the
    # first check of every metered loop
    clock = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
    budget = SearchBudget(max_millis=1)
    for grid in (build_strip, two_sided_approx):
        with pytest.raises(BudgetExceededError) as err:
            grid(vg_bound_curve(2), 8, budget)
        assert err.value.partial == []
    # draw rounds, the full space's distance blocks, greedy blocks (d > 1),
    # greedy chunks (d = 1) and the cloud's scans
    for call in (lambda: random_ensemble(2, 12, 40, 1, budget), lambda: random_ensemble(2, 3, 8, 1, budget),
                 lambda: greedy_code(2, 8, 3, budget), lambda: greedy_code(2, 8, 1, budget),
                 lambda: enumerate_point_cloud(2, 4, ("greedy",), budget)):
        with pytest.raises(BudgetExceededError):
            call()


def test_clique_walk_stops_on_the_clock_at_the_meter_tick(monkeypatch):
    # the meter reads the clock once when it starts and then every 256th
    # node; past the deadline by then, the walk ends UNKNOWN at that node
    readings = itertools.chain([0.0], itertools.repeat(1000.0))
    monkeypatch.setattr(time, "monotonic", lambda: next(readings))
    outcome = exists_code(2, 8, 20, 3, SearchBudget(max_millis=1))
    assert outcome.status is ExistsStatus.UNKNOWN
    assert (outcome.reason, outcome.nodes) == ("budget", 256)


# --- differential references: the searches before the bitset and numpy rewrite


def _reference_word_weight(value: int, q: int, n: int) -> int:
    if q == 2:
        return value.bit_count()
    w = 0
    while value:
        if value % q:
            w += 1
        value //= q
    return w


def _reference_clique_search(q, n, m, d, meter) -> Optional[list[int]]:
    """The recursive list-narrowing search, kept as the reference."""
    binary = q == 2
    space = q ** n
    candidates = []
    for v in range(1, space):
        if _reference_word_weight(v, q, n) >= d:
            candidates.append(v)
    words = None if binary else {v: _int_to_word(v, q, n) for v in candidates}

    def dist(a: int, b: int) -> int:
        if binary:
            return (a ^ b).bit_count()
        wa, wb = words[a], words[b]
        return sum(x != y for x, y in zip(wa, wb))

    target = m - 1

    def extend(chosen: list[int], pool: Sequence[int]) -> Optional[list[int]]:
        if len(chosen) == target:
            return chosen
        for idx, v in enumerate(pool):
            if len(chosen) + len(pool) - idx < target:
                return None
            if not meter.spend():
                return None
            narrowed = [w for w in pool[idx + 1:] if dist(v, w) >= d]
            result = extend(chosen + [v], narrowed)
            if result is not None:
                return result
            if meter.nodes > meter.cap:
                return None
        return None

    found = extend([], candidates)
    if found is None:
        return None
    return [0] + found


# adjacency rows the reference computes per numpy pass
_REFERENCE_ROW_BLOCK = 32


def _reference_adjacency_rows(values, words, d: int, lo: int, hi: int) -> list[int]:
    """Rows lo..hi-1 of the compatibility graph as bitsets, from word values
    (q = 2, words None) or symbol rows: bit j of row i is set iff candidates
    i and j are at distance >= d."""
    if words is None:
        dist = np.bitwise_count(values[lo:hi, None] ^ values[None, :])
    else:
        dist = np.count_nonzero(words[lo:hi, None, :] != words[None, :, :], axis=2)
    bits = np.packbits(dist >= d, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _reference_adjacency(values, words, d: int) -> list[int]:
    k = len(values)
    return [
        row
        for lo in range(0, k, _REFERENCE_ROW_BLOCK)
        for row in _reference_adjacency_rows(values, words, d, lo, min(k, lo + _REFERENCE_ROW_BLOCK))
    ]


def _reference_bitset_clique_search(q, n, m, d, meter) -> Optional[list[int]]:
    """The bitset walk before orbit pruning, over the reference adjacency
    rows, kept as the reference."""
    values, words = search._candidates(q, n, d)
    k = len(values)
    adj = _reference_adjacency(values, words, d) if k <= search._ADJ_CAP else None
    target = m - 1
    chosen: list[int] = []
    pools = [(1 << k) - 1]
    tops = [0]
    while len(chosen) < target:
        pool = pools[-1]
        if pool:
            low = pool & -pool
            v = low.bit_length() - 1
            bound = (tops[-1] >> v).bit_count() if tops[-1] else pool.bit_count()
            if len(chosen) + bound >= target:
                if not meter.spend():
                    return None
                pool ^= low
                pools[-1] = pool
                row = adj[v] if adj is not None else _reference_adjacency_rows(values, words, d, v, v + 1)[0]
                chosen.append(v)
                pools.append(pool & row)
                tops.append(0)
                continue
        pools.pop()
        tops.pop()
        if not chosen:
            return None
        chosen.pop()
        pool = pools[-1]
        if adj is not None and not tops[-1] and len(chosen) + pool.bit_count() >= target:
            tops[-1] = search._colour_tops(pool, adj)
    return [0] + [int(values[v]) for v in chosen]


def _reference_best_linear(q, n, k, budget) -> OracleOutcome:
    """The per-tail Gray walk (binary) and odometer (q > 2), for k < n."""
    if q == 2:
        return _reference_best_linear_binary(n, k, budget)
    return _reference_best_linear_generic(q, n, k, budget)


def _reference_best_linear_binary(n, k, budget) -> OracleOutcome:
    tail_bits = n - k
    total = 1 << (k * tail_bits)
    meter = search._Meter(budget)
    mask = (1 << tail_bits) - 1
    best_d = 0
    best_tail = None
    for tail in range(total):
        if not meter.spend():
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget")
        rows = [(1 << (n - 1 - r)) | ((tail >> (r * tail_bits)) & mask) for r in range(k)]
        word = 0
        prev = 0
        d = n + 1
        for counter in range(1, 1 << k):
            gray = counter ^ (counter >> 1)
            word ^= rows[(gray ^ prev).bit_length() - 1]
            prev = gray
            w = word.bit_count()
            if w < d:
                d = w
                if d <= best_d:
                    break
        if d > best_d:
            best_d = d
            best_tail = tail
    rows = tuple(
        tuple((1 if c == r else 0) for c in range(k))
        + tuple((best_tail >> (r * tail_bits + (tail_bits - 1 - b))) & 1 for b in range(tail_bits))
        for r in range(k)
    )
    return OracleOutcome(OracleStatus.EXACT, best_d, LinearCode(GeneratorMatrix(GF(2), rows)), meter.nodes)


def _reference_best_linear_generic(q, n, k, budget) -> OracleOutcome:
    field = GF(q)
    tail_cols = n - k
    total = q ** (k * tail_cols)
    if total > search._SPACE_CAP:
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, 0, reason="space too large")
    meter = search._Meter(budget)
    best_d = 0
    best_rows = None
    for combo in itertools.product(range(q), repeat=k * tail_cols):
        if not meter.spend():
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget")
        rows = tuple(
            tuple(1 if c == r else 0 for c in range(k)) + combo[r * tail_cols:(r + 1) * tail_cols]
            for r in range(k)
        )
        d = _reference_min_weight_rows(field, rows, n, k, stop_at=best_d)
        if d > best_d:
            best_d = d
            best_rows = rows
    return OracleOutcome(OracleStatus.EXACT, best_d, LinearCode(GeneratorMatrix(field, best_rows)), meter.nodes)


def _reference_min_weight_rows(field, rows, n, k, stop_at=0) -> int:
    best = n + 1
    for message in itertools.product(range(field.q), repeat=k):
        if not any(message):
            continue
        word = [0] * n
        for coeff, row in zip(message, rows):
            if coeff:
                for idx, entry in enumerate(row):
                    if entry:
                        word[idx] = field.add(word[idx], field.mul(coeff, entry))
        w = sum(1 for s in word if s)
        if w < best:
            best = w
            if best <= stop_at:
                return best
    return best


def _small_triples(m_max, alphabets=range(2, 17)):
    """Every (q, n, m, d) with q^n <= 2^8, 2 <= m <= m_max and d >= 2."""
    for q in alphabets:
        n = 2
        while q ** n <= 256:
            for d in range(2, n + 1):
                for m in range(2, min(q ** n, m_max) + 1):
                    yield q, n, m, d
            n += 1


def test_clique_search_matches_recursive_reference(monkeypatch):
    budget = SearchBudget(max_nodes=3_000)
    decided = 0
    for q, n, m, d in _small_triples(m_max=16):
        with monkeypatch.context() as patch:
            patch.setattr(search, "_clique_search", _reference_clique_search)
            ref = exists_code(q, n, m, d, budget)
        new = exists_code(q, n, m, d, budget)
        if ref.status is ExistsStatus.UNKNOWN:
            continue
        decided += 1
        assert new.status is ref.status, (q, n, m, d)
        if ref.found:
            assert write_code_text(new.witness) == write_code_text(ref.witness), (q, n, m, d)
        assert new.nodes <= ref.nodes, (q, n, m, d)
    assert decided > 500


def test_clique_search_matches_bitset_reference(monkeypatch):
    # orbit pruning skips only subtrees without the first clique, so every
    # verdict and witness is the plain walk's, at no more nodes
    budget = SearchBudget(max_nodes=20_000)
    decided = 0
    for q, n, m, d in _small_triples(m_max=24, alphabets=(2, 3, 4)):
        with monkeypatch.context() as patch:
            patch.setattr(search, "_clique_search", _reference_bitset_clique_search)
            ref = exists_code(q, n, m, d, budget)
        new = exists_code(q, n, m, d, budget)
        assert new.nodes <= ref.nodes, (q, n, m, d)
        if ExistsStatus.UNKNOWN in (ref.status, new.status):
            continue
        decided += 1
        assert new.status is ref.status, (q, n, m, d)
        if ref.found:
            assert write_code_text(new.witness) == write_code_text(ref.witness), (q, n, m, d)
    assert decided >= 895


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16])
def test_graph_rows_match_reference(q):
    # every (n, d), 2 <= d <= n, with q^n <= 2^12: the whole graph and the
    # rows built one node at a time above _ADJ_CAP
    n = 2
    while q ** n <= 1 << 12:
        for d in range(2, n + 1):
            values, words = search._candidates(q, n, d)
            rows, width = search._packed_candidates(q, values, words)
            ref = _reference_adjacency(values, words, d)
            assert kernels.far_bitsets(rows, rows, width, d) == ref, (q, n, d)
            for v in sorted({0, len(values) // 2, len(values) - 1}):
                assert kernels.far_bitsets(rows[v:v + 1], rows, width, d) == [ref[v]], (q, n, d, v)
        n += 1


def test_per_node_rows_match_full_adjacency(monkeypatch):
    # with _ADJ_CAP = 0 every node's row is built on its own and the walk has
    # no colouring bound and no orbit pruning: the full adjacency's verdicts
    # and witnesses at no fewer nodes, and node for node the plain walk over
    # the reference rows
    budget = SearchBudget(max_nodes=5_000)
    decided = 0
    for q, n, m, d in _small_triples(m_max=12, alphabets=(2, 3, 4, 5)):
        full = exists_code(q, n, m, d, budget)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_ADJ_CAP", 0)
            per_node = exists_code(q, n, m, d, budget)
            patch.setattr(search, "_clique_search", _reference_bitset_clique_search)
            ref = exists_code(q, n, m, d, budget)
        assert (per_node.status, per_node.nodes) == (ref.status, ref.nodes), (q, n, m, d)
        if per_node.found:
            assert write_code_text(per_node.witness) == write_code_text(ref.witness), (q, n, m, d)
        if ExistsStatus.UNKNOWN in (full.status, per_node.status):
            continue
        decided += 1
        assert per_node.status is full.status, (q, n, m, d)
        assert per_node.nodes >= full.nodes, (q, n, m, d)
        if full.found:
            assert write_code_text(per_node.witness) == write_code_text(full.witness), (q, n, m, d)
    assert decided >= 498


@pytest.mark.parametrize("q,n,d", [(2, 7, 2), (2, 8, 3), (3, 5, 2), (3, 5, 4), (4, 4, 2), (5, 3, 2)])
def test_image_table_rows_are_involutive_isometries(q, n, d):
    values, words = search._candidates(q, n, d)
    rows = words if words is not None else search._word_rows(values, q, n)
    images = search._image_table(q, n, values, words)
    k = len(values)
    # the coordinate transpositions, then the nonzero symbol swaps per coordinate
    assert images.shape == (math.comb(n, 2) + n * math.comb(q - 1, 2), k)
    everyone = np.arange(k)
    weight = np.count_nonzero(rows, axis=1)
    rng = random.Random(q * 100 + n)
    pairs = np.array([rng.sample(range(k), 2) for _ in range(200)])
    dist = np.count_nonzero(rows[pairs[:, 0]] != rows[pairs[:, 1]], axis=1)
    for image in images.astype(np.int64):
        assert np.array_equal(np.sort(image), everyone)
        assert np.array_equal(image[image], everyone)
        assert np.array_equal(weight[image], weight)
        moved = rows[image]
        assert np.array_equal(np.count_nonzero(moved[pairs[:, 0]] != moved[pairs[:, 1]], axis=1), dist)


@pytest.mark.parametrize("q,n,d", [(2, 6, 2), (2, 7, 3), (3, 4, 2), (3, 5, 3), (4, 3, 2), (5, 3, 2)])
def test_orbit_mask_prunes_only_non_leaders(q, n, d):
    # u is pruned only if some generator maps P + [u] to a lexicographically
    # smaller sorted set, which every completion then inherits
    values, words = search._candidates(q, n, d)
    images = search._image_table(q, n, values, words).astype(np.int64)
    k = len(values)
    rng = random.Random(q * 100 + n * 10 + d)
    pruned = 0
    for size in range(search._ORBIT_DEPTH):
        for _ in range(25):
            prefix = sorted(rng.sample(range(k - 1), size))
            mask = search._orbit_mask(images, prefix)
            smaller = {
                u for u in range(prefix[-1] + 1 if prefix else 0, k)
                if any(sorted(image[prefix + [u]]) < prefix + [u] for image in images)
            }
            bits = {u for u in range(k) if mask >> u & 1}
            assert bits <= smaller, (prefix, sorted(bits - smaller))
            pruned += len(bits)
    assert pruned > 0


def test_hard_triples_decide_within_a_small_budget():
    budget = SearchBudget(max_nodes=10_000)
    for n, d in ((9, 5), (10, 6)):
        out = exists_code(2, n, 7, d, budget)
        assert out.status is ExistsStatus.IMPOSSIBLE and out.nodes <= 100, (n, d)
    # m = A(n, d) = 6: the plain walk's witnesses
    assert write_code_text(exists_code(2, 9, 6, 5, budget).witness) == (
        "2 9 6\n000000000\n000011111\n011100011\n101101100\n110110101\n111011010\n")
    assert write_code_text(exists_code(2, 10, 6, 6, budget).witness) == (
        "2 10 6\n0000000000\n0000111111\n0111000111\n1011011001\n1101101010\n1110110100\n")


def _no_image_table(*args):
    raise AssertionError("image table built")


def test_descent_without_backtrack_builds_no_image_table(monkeypatch):
    monkeypatch.setattr(search, "_image_table", _no_image_table)
    out = exists_code(2, 11, 1024, 2)
    assert out.found and out.nodes == 1023


@pytest.mark.parametrize("cap", ["_ADJ_CAP", "_IMAGE_CAP"])
def test_no_image_table_above_its_caps(monkeypatch, cap):
    # without the table the walk is the plain one, node for node
    monkeypatch.setattr(search, cap, 8)
    monkeypatch.setattr(search, "_image_table", _no_image_table)
    budget = SearchBudget(max_nodes=2_000)
    for q, n, m, d in ((2, 9, 7, 5), (3, 6, 5, 5), (2, 6, 9, 3)):
        new = exists_code(q, n, m, d, budget)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_clique_search", _reference_bitset_clique_search)
            ref = exists_code(q, n, m, d, budget)
        assert (new.status, new.nodes) == (ref.status, ref.nodes), (q, n, m, d)


def _linear_cases():
    """Every (q, n, k), k < n, whose systematic space q^(k(n-k)) is <= 2^16."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 256):
        for n in range(2, 18):
            for k in range(1, n):
                if q ** (k * (n - k)) <= 1 << 16:
                    yield q, n, k


# SHA-256 prefixes of the reference's answers where it takes seconds,
# recorded by running it with the default budget
_PINNED_LINEAR = {
    (2, 8, 3): "5376420e2572039b",
    (2, 8, 4): "3596c881a3855b65",
    (2, 8, 5): "dcaac41c698329ec",
    (2, 8, 6): "49e2423f9e599c80",
    (2, 9, 7): "2091a0e2291ab579",
    (2, 10, 2): "e98e2262b8b8ef66",
    (2, 10, 8): "08523ebd684f74bb",
    (3, 6, 3): "59264f4765e226a5",
    (3, 6, 4): "112d3568a72e6246",
    (3, 7, 2): "66a5494bc316dfc9",
    (3, 7, 5): "0eb275c9717544f6",
    (4, 5, 3): "c307e7a0dff8fb9d",
    (4, 6, 2): "2799b9ad936a158a",
    (4, 6, 4): "25cc1440dd50e162",
    (5, 5, 2): "806e1ce7c1bec7ab",
    (5, 5, 3): "436020eb8a43df21",
    (8, 4, 2): "37b27dab3dea7d1e",
    (9, 4, 2): "4ebc6d903dec56ff",
    (11, 4, 2): "486d1de02aac9001",
    (13, 4, 2): "9774e23be7f36096",
    (16, 4, 2): "23f202a9fc2f6a7e",
}


def _linear_fingerprint(out: OracleOutcome):
    text = write_generator_text(out.witness) if out.witness is not None else None
    return out.status, out.d, out.nodes, out.reason, text


def _digest(fingerprint) -> str:
    status, d, nodes, reason, text = fingerprint
    return hashlib.sha256(f"{status.value} {d} {nodes} {reason}\n{text}".encode()).hexdigest()[:16]


@pytest.mark.parametrize("q,n,k", list(_linear_cases()))
def test_best_linear_matches_reference(q, n, k):
    budget = SearchBudget()
    new = _linear_fingerprint(search._best_linear(q, n, k, budget))
    if q ** (k * (n - k) + k) <= 1 << 17:
        assert new == _linear_fingerprint(_reference_best_linear(q, n, k, budget))
    elif k in (1, n - 1):
        # the repetition (k = 1) and parity-check (k = n - 1) codes meet the
        # Singleton bound, and a tail with a zero entry leaves a lighter
        # codeword, so the all-ones tail is the first best one
        rows = tuple(tuple(int(c == r or c >= k) for c in range(n)) for r in range(k))
        text = write_generator_text(LinearCode(GeneratorMatrix(GF(q), rows)))
        assert new == (OracleStatus.EXACT, n - k + 1, q ** (k * (n - k)), "", text)
    else:
        assert _digest(new) == _PINNED_LINEAR[q, n, k]


@pytest.mark.parametrize("q,n,k", [(2, 8, 4), (3, 6, 2)])
def test_best_linear_budget_exhaustion_matches_reference(q, n, k):
    budget = SearchBudget(max_nodes=1_000)
    new = search._best_linear(q, n, k, budget)
    assert new.status is OracleStatus.UNKNOWN
    assert _linear_fingerprint(new) == _linear_fingerprint(_reference_best_linear(q, n, k, budget))


def test_binary_tail_rows_are_the_qary_rows_reversed():
    # one tail index read by the packed binary lane and by the digit-array
    # lane of q > 2 gives the same rows in opposite orders
    for k, tail_cols in ((1, 3), (2, 2), (3, 2), (4, 3)):
        tails = np.arange(1 << (k * tail_cols), dtype=np.int64)
        packed = search._tail_rows(tails, 2, k, tail_cols)
        digits = search._word_rows(tails, 2, k * tail_cols)
        qary = [digits[:, r * tail_cols:(r + 1) * tail_cols] for r in range(k)]
        for row, qary_row in zip(packed, reversed(qary)):
            bits = np.stack([(row >> (tail_cols - 1 - c)) & 1 for c in range(tail_cols)], axis=1)
            assert np.array_equal(bits, qary_row)



def _reference_chunked_best_linear(q, n, k, budget) -> OracleOutcome:
    """The chunked scan that hands every tail to ``_best_tail``: the same
    chunks, node charges, budget refusals and witness as ``search._best_linear``."""
    if not 1 <= k <= n:
        raise ContractViolationError("need 1 <= k <= n")
    field = GF(q)
    if k == n:
        gen = GeneratorMatrix(field, tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n)))
        return OracleOutcome(OracleStatus.EXACT, 1, LinearCode(gen), 0)
    tail_cols = n - k
    if q > 2 and q ** (k * tail_cols) > search._SPACE_CAP:
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, 0, reason="space too large")
    total = q ** (k * tail_cols)
    meter = search._Meter(budget)
    if total > meter.cap:
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.cap + 1, reason="budget")
    if q == 2:
        ops = (np.bitwise_xor, lambda c, part: part, np.bitwise_count)
    else:
        add, mul = field.tables
        ops = (lambda a, b: add[a, b], lambda c, part: mul[c][part], lambda word: np.count_nonzero(word, axis=1))
    messages = sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in range(1, min(k, tail_cols) + 1))
    chunk = max(1, min(search._TAIL_CHUNK, search._CHUNK_WORK // messages))
    best_d, best_tail = 0, None
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        meter.nodes += hi - lo
        if meter.exhausted():
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget")
        tails = np.arange(lo, hi, dtype=np.int64)
        found = search._best_tail(search._tail_rows(tails, q, k, tail_cols), tails, q, n, ops, best_d)
        if found is not None:
            best_d, best_tail = found
    if q == 2:
        tail = [(best_tail >> (r * tail_cols + tail_cols - 1 - b)) & 1 for r in range(k) for b in range(tail_cols)]
    else:
        tail = search._word_rows([best_tail], q, k * tail_cols)[0].tolist()
    rows = tuple(
        tuple(1 if c == r else 0 for c in range(k)) + tuple(tail[r * tail_cols:(r + 1) * tail_cols])
        for r in range(k)
    )
    return OracleOutcome(OracleStatus.EXACT, best_d, LinearCode(GeneratorMatrix(field, rows)), meter.nodes)


def _full_scan_cases():
    """Every binary (n, k) with k(n-k) <= 18, and every q-ary one in
    q = 3, 4, 5 with at most 3^9 tails."""
    for q in (2, 3, 4, 5):
        for n in range(1, 20):
            for k in range(1, n + 1):
                if (q == 2 and k * (n - k) <= 18) or (q > 2 and q ** (k * (n - k)) <= 3 ** 9):
                    yield q, n, k


@pytest.mark.parametrize("q,n,k", list(_full_scan_cases()))
def test_best_linear_matches_the_chunked_full_scan(q, n, k):
    # the sorted tails alone give the same d, witness, nodes and reason,
    # within the default budget and under 1,000 nodes
    for budget in (SearchBudget(), SearchBudget(max_nodes=1_000)):
        new = _linear_fingerprint(search._best_linear(q, n, k, budget))
        assert new == _linear_fingerprint(_reference_chunked_best_linear(q, n, k, budget))


# nodes still count every tail; digests recorded with the full scan
_PINNED_RAISED_LINEAR = {(10, 4): "45612fc746faf34b", (10, 5): "a46d190bee0fd88c"}


@pytest.mark.parametrize("n,k,walked", [(8, 4, 650), (9, 4, 2_942), (10, 4, 11_819), (10, 5, 24_520)])
def test_best_linear_walks_only_sorted_tails(monkeypatch, n, k, walked):
    handed = []
    original = search._best_tail

    def counted(rows, tails, *args):
        handed.append(len(tails))
        return original(rows, tails, *args)

    monkeypatch.setattr(search, "_best_tail", counted)
    out = search._best_linear(2, n, k, SearchBudget(max_nodes=1 << 26))
    assert sum(handed) == walked
    assert out.exact and out.d == 4 and out.nodes == 1 << (k * (n - k))
    if (n, k) in _PINNED_RAISED_LINEAR:
        assert _digest(_linear_fingerprint(out)) == _PINNED_RAISED_LINEAR[n, k]

def test_deep_clique_search_needs_no_recursion():
    # 1,023 words deep: the recursive search raised RecursionError here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        out = exists_code(2, 11, 1024, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert out.found and out.nodes == 1023
    even = [bytes(w) for w in itertools.product((0, 1), repeat=11) if sum(w) % 2 == 0]
    assert out.witness.words == tuple(even)


def test_best_min_distance_charges_one_budget_per_query():
    # the scan of (6, 5) proves d = 5 and d = 4 impossible, then finds d = 3
    full = best_min_distance(2, 6, 5)
    assert full.exact and full.d == 3
    steps = [exists_code(2, 6, 5, d).nodes for d in range(6, 2, -1)]
    assert full.nodes == sum(steps)
    # one node short of the scan: every step alone fits, the query does not
    cap = full.nodes - 1
    assert max(steps) <= cap
    short = best_min_distance(2, 6, 5, SearchBudget(max_nodes=cap))
    assert short.status is OracleStatus.UNKNOWN and short.nodes == cap + 1


# --- greedy codes and random ensembles against their word-by-word originals ---


@pytest.fixture
def generators(monkeypatch):
    """Every random.Random that search creates, to read its final state."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(search, "random", types.SimpleNamespace(Random=Recording))
    return made


def _reference_greedy(q, n, d, budget, target_m=None):
    """greedy_code as it was, one scanned word at a time; (code, final state)."""
    rng = random.Random(budget.rng_seed)
    space = q ** n
    scan_cap = min(space, budget.max_nodes)
    if space <= (1 << 16):
        order = list(range(space))
        rng.shuffle(order)
        order = order[:scan_cap]
    else:
        mult = rng.randrange(1, space) | 1
        while math.gcd(mult, space) != 1:
            mult += 2
        offset = rng.randrange(space)
        order = ((mult * t + offset) % space for t in range(scan_cap))
    kept = []
    for value in order:
        word = _int_to_word(value, q, n)
        if kept:
            rows = np.frombuffer(b"".join(kept), dtype=np.uint8).reshape(len(kept), n)
            if ((rows != np.frombuffer(word, dtype=np.uint8)).sum(axis=1) < d).any():
                continue
        kept.append(word)
        if target_m is not None and len(kept) >= target_m:
            break
    return Code.from_words(q, kept), rng.getstate()


def _reference_ensemble(q, n, m, trials, budget):
    """random_ensemble as it was, one word and one symbol at a time;
    ([(words, d), ...], final state)."""
    rng = random.Random(budget.rng_seed)
    results = []
    for _ in range(trials):
        if m == q ** n:
            words = [_int_to_word(v, q, n) for v in range(m)]
        else:
            seen = set()
            while len(seen) < m:
                if q == 2:
                    word = _int_to_word(rng.getrandbits(n), q, n)
                else:
                    word = bytes(rng.randrange(q) for _ in range(n))
                seen.add(word)
            words = sorted(seen)
        code = Code.from_words(q, words)
        results.append((code.words, 0 if m == 1 else min_distance(code)[0]))
    return results, rng.getstate()


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 3, 11])
def test_greedy_code_matches_word_by_word_reference(generators, seed):
    budget = SearchBudget(rng_seed=seed)
    for q, n_max in ((2, 12), (3, 7), (4, 6)):  # every q**n <= 4096
        for n in range(1, n_max + 1):
            for d in range(1, n + 1):
                expected, state = _reference_greedy(q, n, d, budget)
                assert greedy_code(q, n, d, budget).words == expected.words, (q, n, d)
                assert generators[-1].getstate() == state, (q, n, d)


@pytest.mark.parametrize("q, n, d, max_nodes, target_m", [
    (2, 10, 3, 2_000_000, 8),
    (2, 12, 2, 2_000_000, 300),     # stops inside a later scan chunk
    (2, 8, 3, 2_000_000, 0),        # a target below 1 still keeps one word
    (2, 12, 1, 2_000_000, 700),
    (4, 5, 2, 500, 40),             # node cap below q**n, with a target
    (3, 6, 3, 100, None),           # node cap below q**n
    (2, 9, 2, 37, None),
    (2, 16, 2, 2_000_000, 16),      # the largest shuffled space
    (2, 16, 3, 2_000_000, 300),     # past its first 64- and 128-word chunks
    (2, 16, 2, 1_000, None),        # cut by the node cap
    (3, 8, 3, 2_000_000, None),     # a batched shuffle of 3**8 words, whole scan
    (2, 17, 9, 2_000_000, None),    # affine walk over 2**17 words, whole scan
    (3, 11, 4, 20_000, None),       # affine walk cut by the node cap
    (2, 24, 3, 2_000_000, 64),
    (2, 70, 5, 2_000_000, 20),      # word values beyond 64 bits
    (5, 30, 12, 2_000_000, 10),
])
def test_greedy_code_matches_reference_with_caps_and_affine_walks(
        generators, q, n, d, max_nodes, target_m):
    budget = SearchBudget(max_nodes=max_nodes, rng_seed=5)
    expected, state = _reference_greedy(q, n, d, budget, target_m)
    assert greedy_code(q, n, d, budget, target_m=target_m).words == expected.words
    assert generators[-1].getstate() == state


def test_shuffle_draws_through_randbelow_with_getrandbits():
    # _shuffled_order replays these draws; another randbelow would change them
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def _shuffle_sizes():
    sizes = {3 ** 8, 4 ** 8}
    sizes.update(search._BATCHED_SHUFFLE + k for k in (-1, 0, 1))
    for k in range(1, 17):
        sizes.update((2 ** k, 2 ** k + 1))
    return sorted(sizes)


@pytest.mark.parametrize("space", _shuffle_sizes())
def test_shuffled_order_is_rng_shuffle(space):
    for seed in range(20):
        rng = random.Random(seed)
        expected = list(range(space))
        rng.shuffle(expected)
        batched = random.Random(seed)
        assert search._shuffled_order(batched, space).tolist() == expected, seed
        assert batched.getstate() == rng.getstate(), seed


@pytest.mark.parametrize("q, n_max", [(2, 8), (3, 5), (4, 4), (2, 11), (2, 17)])
def test_greedy_cloud_sieves_every_distance_from_one_order(q, n_max):
    # one sieve pass per length gives every d's (n, m, d): 2**11 words make
    # two sieve blocks, and past 2**16 words the order is an affine walk
    budget = SearchBudget(max_nodes=500 if n_max > 16 else 2_000_000, rng_seed=9)
    seen = []
    search._cloud_greedy(q, n_max, budget, lambda p, provenance: seen.append(p.triple()))
    expected = [params(_reference_greedy(q, n, d, budget)[0]).triple()
                for n in range(1, n_max + 1) for d in range(1, n + 1)]
    assert seen == expected
    assert enumerate_point_cloud(q, n_max, ("greedy",), budget).triples() == set(expected)


def test_greedy_cloud_builds_no_code_and_the_family_validates_few(monkeypatch):
    # the greedy cloud reads every triple off its sieve pass (it built and
    # measured 36 codes at q = 2, n_max = 8 while each d ran its own sieve);
    # the seeded family validates its seeds and the codes a puncture builds
    # (167 validations and 104 measurements while every move built its code
    # through Code.from_words and a puncture measured its code again)
    counts = {"min_pairwise": 0, "validations": 0}
    measure, validate = kernels.min_pairwise, Code.__post_init__

    def counted_measure(*args, **kwargs):
        counts["min_pairwise"] += 1
        return measure(*args, **kwargs)

    def counted_validate(code):
        counts["validations"] += 1
        validate(code)

    monkeypatch.setattr(kernels, "min_pairwise", counted_measure)
    monkeypatch.setattr(search, "min_pairwise", counted_measure)
    monkeypatch.setattr(Code, "__post_init__", counted_validate)
    enumerate_point_cloud(2, 8, ("greedy",))
    assert counts == {"min_pairwise": 0, "validations": 0}
    enumerate_point_cloud(2, 8, ("seeded-family",))
    assert counts == {"min_pairwise": 92, "validations": 41}


def _ensemble_cases():
    for q in (2, 3, 4, 5, 16, 255, 256):
        for n in (1, 31, 32, 33, 64, 100):
            yield q, n, 1
            yield q, n, min(q ** n, 7)
        yield q, 1, q          # the full space
        yield q, 1, q - 1      # near-full: most draws repeat a word
    yield from ((2, 3, 7), (2, 5, 31), (3, 2, 8), (4, 3, 60), (2, 4, 16), (3, 4, 81))


@pytest.mark.parametrize("q, n, m", sorted(set(_ensemble_cases())))
def test_random_ensemble_matches_word_by_word_reference(generators, q, n, m):
    for seed in (DEFAULT_SEED, 4):
        budget = SearchBudget(rng_seed=seed)
        expected, state = _reference_ensemble(q, n, m, 3, budget)
        got = random_ensemble(q, n, m, 3, budget)
        assert [(code.words, d) for code, d in got] == expected
        assert generators[-1].getstate() == state


@pytest.mark.parametrize("q, n, m", [(2, 33, 40), (3, 10, 50), (2, 3, 7)])
def test_random_ensemble_rounds_below_the_missing_count(generators, monkeypatch, q, n, m):
    # rounds of a few words, fewer than are missing, still end where the old draws did
    monkeypatch.setattr(search, "_DRAW_SYMBOLS", 3 * n)
    for seed in (DEFAULT_SEED, 4):
        budget = SearchBudget(rng_seed=seed)
        expected, state = _reference_ensemble(q, n, m, 3, budget)
        got = random_ensemble(q, n, m, 3, budget)
        assert [(code.words, d) for code, d in got] == expected
        assert generators[-1].getstate() == state
