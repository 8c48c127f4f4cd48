"""Desk-scale code search: exact existence decisions under explicit budgets.

``exists_code`` decides whether a parameter triple is realizable by
branch-and-bound over the distance->=d compatibility graph, with two
standard symmetry reductions: the first word is fixed to all-zeros (any
code translates onto one containing it, coordinate-wise, by a distance-
preserving symbol relabeling) and the remaining words are chosen in
strictly increasing lexicographic order. A negative answer is therefore an
exhaustion certificate, not a heuristic; budget exhaustion is a third,
explicit outcome rather than an error.

``best_min_distance`` in linear mode enumerates systematic generator
matrices [I | A] only: column permutations preserve distance and any
full-rank code is column-equivalent to a systematic one, so the
restriction loses nothing while shrinking the space to q^(k(n-k)).

All stochastic procedures draw from ``random.Random`` seeded by the
budget, so identical budgets give bit-identical outputs.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import spoiling
from .codes import Code, CodeParams, check_alphabet, code_point, floor_log_q, min_distance, params
from .errors import ContractViolationError
from .fields import GF
from .geometry import RatPoint
from .kernels import all_at_least, min_pairwise
from .linear import GeneratorMatrix, LinearCode, seed_family, to_code

#: documented default RNG seed for every stochastic procedure
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SearchBudget:
    """Node/time limits plus the RNG seed; same budget + seed => same results.

    ``max_nodes`` is the determinism-bearing limit. ``max_millis`` is a
    wall-clock guard for interactive use; when it fires first, outcomes are
    still explicit (Unknown) but machine-dependent.
    """

    max_nodes: int = 2_000_000
    max_millis: Optional[int] = None
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ContractViolationError("max_nodes must be positive")
        if self.max_millis is not None and self.max_millis < 1:
            raise ContractViolationError("max_millis must be positive")


DEFAULT_BUDGET = SearchBudget()


class _Meter:
    """Counts expansions and watches the optional wall clock."""

    __slots__ = ("nodes", "cap", "deadline", "_tick")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.cap = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.max_millis / 1000.0
            if budget.max_millis is not None
            else None
        )
        self._tick = 0

    def spend(self, k: int = 1) -> bool:
        """Charge k nodes; False once the budget is exhausted."""
        self.nodes += k
        if self.nodes > self.cap:
            return False
        self._tick += 1
        if self.deadline is not None and (self._tick & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                return False
        return True


class ExistsStatus(enum.Enum):
    FOUND = "found"
    IMPOSSIBLE = "impossible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExistsOutcome:
    status: ExistsStatus
    witness: Optional[Code]
    nodes: int
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.status is ExistsStatus.FOUND


def _int_to_word(value: int, q: int, n: int) -> bytes:
    digits = bytearray(n)
    for pos in range(n - 1, -1, -1):
        digits[pos] = value % q
        value //= q
    return bytes(digits)


def _word_weight(value: int, q: int, n: int) -> int:
    if q == 2:
        return value.bit_count()
    w = 0
    while value:
        if value % q:
            w += 1
        value //= q
    return w


# search spaces larger than this are never materialized
_SPACE_CAP = 1 << 20


def exists_code(q: int, n: int, m: int, d: int, budget: SearchBudget = DEFAULT_BUDGET) -> ExistsOutcome:
    """Decide realizability of the triple (n, m, d) over a q-letter alphabet.

    FOUND returns a witness whose minimum distance is exactly d (a witness
    clique with larger distance is walked down by the spoiling moves, which
    preserve n and m). IMPOSSIBLE is returned only after exhausting the
    reduced search space.
    """
    check_alphabet(q)
    if n < 1 or not 1 <= m <= q ** n or not 0 <= d <= n:
        raise ContractViolationError(f"malformed triple (n={n}, m={m}, d={d}) for q={q}")
    if m == 1:
        if d != 0:
            raise ContractViolationError("singleton triples have d = 0")
        return ExistsOutcome(ExistsStatus.FOUND, Code.from_words(q, [bytes(n)]), 0)
    if d == 0:
        raise ContractViolationError("d = 0 is reserved for singletons")
    if d == 1:
        # the first m words in lex order contain a pair at distance exactly 1
        words = [_int_to_word(v, q, n) for v in range(m)]
        return ExistsOutcome(ExistsStatus.FOUND, Code.from_words(q, words), 0)
    if q ** n > _SPACE_CAP:
        return ExistsOutcome(
            ExistsStatus.UNKNOWN, None, 0, reason=f"search space q^n > {_SPACE_CAP}"
        )

    meter = _Meter(budget)
    found = _clique_search(q, n, m, d, meter)
    if found is None:
        if meter.nodes > meter.cap or (
            meter.deadline is not None and time.monotonic() > meter.deadline
        ):
            return ExistsOutcome(ExistsStatus.UNKNOWN, None, meter.nodes, reason="budget")
        return ExistsOutcome(ExistsStatus.IMPOSSIBLE, None, meter.nodes, reason="exhausted")
    code = Code.from_words(q, [_int_to_word(v, q, n) for v in found])
    actual, _ = min_distance(code)
    if actual > d:
        code = spoiling.reduce_distance_exact(code, d)
    return ExistsOutcome(ExistsStatus.FOUND, code, meter.nodes)


def _clique_search(q: int, n: int, m: int, d: int, meter: _Meter) -> Optional[list[int]]:
    """DFS for a size-m clique containing the zero word; None on failure."""
    binary = q == 2
    space = q ** n
    candidates = []
    for v in range(1, space):
        if _word_weight(v, q, n) >= d:
            candidates.append(v)
    words = None if binary else {v: _int_to_word(v, q, n) for v in candidates}

    def dist(a: int, b: int) -> int:
        if binary:
            return (a ^ b).bit_count()
        wa, wb = words[a], words[b]
        return sum(x != y for x, y in zip(wa, wb))

    target = m - 1  # beyond the fixed zero word

    def extend(chosen: list[int], pool: Sequence[int]) -> Optional[list[int]]:
        if len(chosen) == target:
            return chosen
        for idx, v in enumerate(pool):
            if len(chosen) + len(pool) - idx < target:
                return None  # not enough candidates left
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


class OracleStatus(enum.Enum):
    EXACT = "exact"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OracleOutcome:
    status: OracleStatus
    d: Optional[int]
    witness: Optional[object]  # Code or LinearCode
    nodes: int
    reason: str = ""

    @property
    def exact(self) -> bool:
        return self.status is OracleStatus.EXACT


def best_min_distance(
    q: int,
    n: int,
    m: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    linear: bool = False,
) -> OracleOutcome:
    """Exact maximum achievable minimum distance at fixed cardinality.

    In linear mode m must be q**k; the search runs over systematic
    generators and the witness is a LinearCode. The unstructured mode scans
    d downward with the existence oracle; the first realizable d is the
    maximum, and the witness clique attains it exactly.
    """
    if m == 1:
        return OracleOutcome(OracleStatus.EXACT, 0, exists_code(q, n, 1, 0, budget).witness, 0)
    if linear:
        k = floor_log_q(m, q)
        if q ** k != m:
            raise ContractViolationError("linear mode requires cardinality q**k")
        return _best_linear(q, n, k, budget)
    nodes = 0
    for d in range(n, 0, -1):
        outcome = exists_code(q, n, m, d, budget)
        nodes += outcome.nodes
        if outcome.status is ExistsStatus.UNKNOWN:
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, nodes, outcome.reason)
        if outcome.found:
            return OracleOutcome(OracleStatus.EXACT, d, outcome.witness, nodes)
    raise ContractViolationError("unreachable: d = 1 is always realizable")


def _best_linear(q: int, n: int, k: int, budget: SearchBudget) -> OracleOutcome:
    if not 1 <= k <= n:
        raise ContractViolationError("need 1 <= k <= n")
    if k == n:
        gen = GeneratorMatrix(GF(q), tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n)))
        return OracleOutcome(OracleStatus.EXACT, 1, LinearCode(gen), 0)
    if q == 2:
        return _best_linear_binary(n, k, budget)
    return _best_linear_generic(q, n, k, budget)


def _best_linear_binary(n: int, k: int, budget: SearchBudget) -> OracleOutcome:
    tail_bits = n - k
    total = 1 << (k * tail_bits)
    meter = _Meter(budget)
    mask = (1 << tail_bits) - 1
    best_d = 0
    best_tail = None
    for tail in range(total):
        if not meter.spend():
            return OracleOutcome(
                OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget"
            )
        rows = [
            (1 << (n - 1 - r)) | ((tail >> (r * tail_bits)) & mask)
            for r in range(k)
        ]
        # Gray walk over the 2^k - 1 nonzero messages
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
    witness = LinearCode(GeneratorMatrix(GF(2), rows))
    return OracleOutcome(OracleStatus.EXACT, best_d, witness, meter.nodes)


def _best_linear_generic(q: int, n: int, k: int, budget: SearchBudget) -> OracleOutcome:
    field = GF(q)
    tail_cols = n - k
    total = q ** (k * tail_cols)
    if total > _SPACE_CAP:
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, 0, reason="space too large")
    meter = _Meter(budget)
    best_d = 0
    best_rows = None
    for combo in itertools.product(range(q), repeat=k * tail_cols):
        if not meter.spend():
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget")
        rows = tuple(
            tuple(1 if c == r else 0 for c in range(k)) + combo[r * tail_cols:(r + 1) * tail_cols]
            for r in range(k)
        )
        d = _min_weight_rows(field, rows, n, k, stop_at=best_d)
        if d > best_d:
            best_d = d
            best_rows = rows
    witness = LinearCode(GeneratorMatrix(field, best_rows))
    return OracleOutcome(OracleStatus.EXACT, best_d, witness, meter.nodes)


def _min_weight_rows(field, rows, n: int, k: int, stop_at: int = 0) -> int:
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


def greedy_code(
    q: int,
    n: int,
    d: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    target_m: Optional[int] = None,
) -> Code:
    """Greedy sieve: scan words in a seeded pseudo-random order, keep each
    word at distance >= d from everything kept so far.

    Stops early once ``target_m`` words are kept. Small spaces use a full
    Fisher-Yates shuffle; larger ones a seeded affine walk over word
    indices (full-period, so the scan covers the space given enough
    budget). Deterministic for a fixed budget.
    """
    import random as _random

    check_alphabet(q)
    if not 1 <= d <= n:
        raise ContractViolationError("need 1 <= d <= n")
    rng = _random.Random(budget.rng_seed)
    space = q ** n
    scan_cap = min(space, budget.max_nodes)

    if space <= (1 << 16):
        order: Iterable[int] = list(range(space))
        rng.shuffle(order)
        order = order[:scan_cap]
    else:
        mult = rng.randrange(1, space) | 1
        while math.gcd(mult, space) != 1:
            mult += 2
        offset = rng.randrange(space)
        order = ((mult * t + offset) % space for t in range(scan_cap))

    kept: list[bytes] = []
    buffer = bytearray()
    for value in order:
        word = _int_to_word(value, q, n)
        if not kept or all_at_least(buffer, len(kept), n, word, d):
            kept.append(word)
            buffer.extend(word)
            if target_m is not None and len(kept) >= target_m:
                break
    return Code.from_words(q, kept)


def random_ensemble(
    q: int,
    n: int,
    m: int,
    trials: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[tuple[Code, int]]:
    """Uniform random cardinality-m codes with their exact minimum distances."""
    import random as _random

    check_alphabet(q)
    if not 1 <= m <= q ** n:
        raise ContractViolationError("cardinality out of range")
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = _random.Random(budget.rng_seed)
    results = []
    full_space = m == q ** n
    for _ in range(trials):
        if full_space:
            words = [_int_to_word(v, q, n) for v in range(m)]
        else:
            seen: set[bytes] = set()
            while len(seen) < m:
                if q == 2:
                    word = _int_to_word(rng.getrandbits(n), q, n)
                else:
                    word = bytes(rng.randrange(q) for _ in range(n))
                seen.add(word)
            words = sorted(seen)
        code = Code.from_words(q, words)
        if m == 1:
            results.append((code, 0))
        else:
            d, _, _ = min_pairwise(code.packed(), code.m, code.n)
            results.append((code, int(d)))
    return results


# --- point clouds ---------------------------------------------------------

STRATEGIES = ("exhaustive", "exhaustive-linear", "greedy", "random", "seeded-family")


@dataclass(frozen=True)
class PointCloudEntry:
    params: CodeParams
    point: RatPoint
    provenance: str


@dataclass(frozen=True)
class PointCloud:
    entries: tuple[PointCloudEntry, ...]
    n_max: int

    def triples(self) -> set[tuple[int, int, int]]:
        return {e.params.triple() for e in self.entries}

    def points(self) -> set[RatPoint]:
        return {e.point for e in self.entries}


def enumerate_point_cloud(
    q: int,
    n_max: int,
    strategies: Sequence[str] = STRATEGIES,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> PointCloud:
    """Merged, deduplicated parameter/point cloud from the chosen strategies.

    Deduplication is by parameter triple; the first strategy (in the order
    given) claims the provenance tag.
    """
    if n_max < 1:
        raise ContractViolationError("n_max must be >= 1")
    for name in strategies:
        if name not in STRATEGIES:
            raise ContractViolationError(f"unknown strategy {name!r}")
    collected: dict[tuple[int, int, int], PointCloudEntry] = {}

    def add(p: CodeParams, provenance: str):
        key = p.triple()
        if key not in collected:
            collected[key] = PointCloudEntry(p, code_point(p), provenance)

    for name in strategies:
        if name == "exhaustive":
            _cloud_exhaustive(q, n_max, budget, add)
        elif name == "exhaustive-linear":
            _cloud_exhaustive_linear(q, n_max, budget, add)
        elif name == "greedy":
            _cloud_greedy(q, n_max, budget, add)
        elif name == "random":
            _cloud_random(q, n_max, budget, add)
        elif name == "seeded-family":
            _cloud_seeded(q, n_max, budget, add)

    entries = tuple(sorted(collected.values(), key=lambda e: e.params.triple()))
    return PointCloud(entries=entries, n_max=n_max)


_EXH_SPACE_CAP = 64   # q^n cap for the unstructured exhaustive strategy
_EXH_M_CAP = 32       # cardinality cap per length


def _cloud_exhaustive(q, n_max, budget, add):
    for n in range(1, n_max + 1):
        add(CodeParams(q=q, n=n, m=1, d=0), "exhaustive")
        if q ** n > _EXH_SPACE_CAP:
            continue
        for m in range(2, min(q ** n, _EXH_M_CAP) + 1):
            best = best_min_distance(q, n, m, budget)
            if not best.exact:
                continue
            for d in range(1, best.d + 1):
                add(CodeParams(q=q, n=n, m=m, d=d), "exhaustive")


def _cloud_exhaustive_linear(q, n_max, budget, add):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            if k * (n - k) > 16:
                continue
            best = _best_linear(q, n, k, budget)
            if best.exact:
                add(CodeParams(q=q, n=n, m=q ** k, d=best.d), "exhaustive-linear")


def _cloud_greedy(q, n_max, budget, add):
    for n in range(1, n_max + 1):
        for dist in range(1, n + 1):
            code = greedy_code(q, n, dist, budget)
            add(params(code), "greedy")


def _cloud_random(q, n_max, budget, add):
    for n in range(2, n_max + 1):
        m = max(2, q ** (n // 2))
        if m > q ** n:
            continue
        for code, _d in random_ensemble(q, n, m, trials=3, budget=budget):
            add(params(code), "random")


_CLOSURE_CAP = 512


def _cloud_seeded(q, n_max, budget, add):
    seeds: list[Code] = []
    for n in range(1, n_max + 1):
        seeds.append(to_code(seed_family("repetition", n=n, q=q)))
        if n >= 2 and q ** (n - 1) <= 4096:
            seeds.append(to_code(seed_family("parity", n=n, q=q)))
    if q == 2 and n_max >= 7:
        seeds.append(to_code(seed_family("hamming_7_4")))
    if q == 2 and n_max >= 8:
        seeds.append(to_code(seed_family("extended_hamming_8_4")))

    frontier = [c for c in seeds if c.n <= n_max]
    visited: set[tuple[int, int, int]] = set()
    expansions = 0
    while frontier and expansions < _CLOSURE_CAP:
        code = frontier.pop()
        p = params(code)
        key = p.triple()
        if key in visited:
            continue
        visited.add(key)
        add(p, "seeded-family")
        expansions += 1
        if code.n < n_max:
            frontier.append(spoiling.lengthen(code))
        if code.n > 1 and p.d >= 2:
            frontier.append(spoiling.puncture(code))
        if code.n > 1 and p.m > q:
            frontier.append(spoiling.shorten(code))


# --- finite-range multiplicity --------------------------------------------


@dataclass(frozen=True)
class MultiplicityReport:
    point: RatPoint
    verified: tuple[CodeParams, ...]
    unknown: tuple[tuple[int, int, int], ...]

    @property
    def count(self) -> int:
        return len(self.verified)


def multiplicity_in_range(
    point: RatPoint,
    q: int,
    n_max: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> MultiplicityReport:
    """Count distinct verified-realizable triples with n <= n_max mapping to
    ``point`` under the floor-rate/distance map; the finite shadow of the
    point's multiplicity."""
    verified: list[CodeParams] = []
    unknown: list[tuple[int, int, int]] = []
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
                continue  # singleton triples carry d = 0 only
            outcome = exists_code(q, n, m, d, budget)
            if outcome.found:
                verified.append(CodeParams(q=q, n=n, m=m, d=d))
            elif outcome.status is ExistsStatus.UNKNOWN:
                unknown.append((n, m, d))
    return MultiplicityReport(point=point, verified=tuple(verified), unknown=tuple(unknown))
