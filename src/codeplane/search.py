"""Desk-scale code search: exact existence decisions under explicit budgets.

``exists_code`` decides whether a parameter triple is realizable by
branch-and-bound over the distance->=d compatibility graph, with two
standard symmetry reductions: the first word is fixed to all-zeros (any
code translates onto one containing it, coordinate-wise, by a distance-
preserving symbol relabeling) and the remaining words are chosen in
strictly increasing lexicographic order. A negative answer is therefore an
exhaustion certificate, not a heuristic; budget exhaustion is a third,
explicit outcome rather than an error.

The branch-and-bound is one explicit-stack depth-first walk over bitsets
(Python ints, bit i standing for the i-th candidate word in lexicographic
order): the graph is one adjacency row per candidate, and a stack frame
holds only ints, its untried pool and, once needed, the tops of its colour
classes. A frame branches on its pool in ascending order and gives up when
the words chosen so far plus an upper bound on the clique left in the pool
fall short of m. The bound is the pool's popcount until the frame's first
child has failed; from then on it is the number of classes of a greedy
colouring of the untried pool whose top vertex is at or above the next
candidate: each class is an independent set, so a clique takes at most
one word from it (Östergård 2002; San Segundo et al. 2011). Colouring only
after a failure keeps descents that never backtrack free of its cost.
Both bounds are sound and the branching order is the lexicographic one,
so the first clique found, hence every witness, is that of a plain
lexicographic search, and the walk visits only nodes that search visits.

``best_min_distance`` in linear mode enumerates systematic generator
matrices [I | A] only: column permutations preserve distance and any
full-rank code is column-equivalent to a systematic one, so the
restriction loses nothing while shrinking the space to q^(k(n-k)). The
tails A are taken in numpy chunks in a fixed order, and all tails of a
chunk walk the nonzero messages together, by their number w of nonzero
coefficients and up to scalar multiples. Every later codeword weighs at
least w, so the walk stops once each running minimum is at most w; a tail
leaves it once it cannot beat the best distance of the earlier chunks,
and the first tail of the largest minimum weight wins, as in a plain
tail-by-tail scan.

All stochastic procedures draw from ``random.Random`` seeded by the
budget, so identical budgets give bit-identical outputs. The random
ensembles take their draws in batches that consume the generator output
for output as word-by-word draws would: ``getrandbits(32 * c)`` returns
the next c raw 32-bit outputs, and numpy applies to them the rules of
``getrandbits(n)`` (ceil(n/32) outputs, the last one cut to its top
n % 32 bits) and of ``randrange(q)`` (the top q.bit_length() bits of an
output, redrawn when they are >= q), so no state is copied out of the
generator. The greedy codes keep ``shuffle`` and ``randrange`` for their
scan order, which depends on the length but not on the distance, so one
order serves a whole distance sweep; ``kernels.greedy_sieve`` then keeps
each word at distance >= d from the words kept before it.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import spoiling
from .codes import (Code, CodeParams, at_most_power, check_alphabet, code_point, floor_log_q,
                    min_distance, params)
from .errors import ContractViolationError
from .fields import GF
from .geometry import RatPoint
from .kernels import all_at_least  # unused here; perfbench/tracing.py binds this name
from .kernels import greedy_sieve, min_pairwise
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

    def exhausted(self) -> bool:
        """True once the node cap or the wall clock has run out."""
        return self.nodes > self.cap or (
            self.deadline is not None and time.monotonic() > self.deadline
        )


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


# search spaces larger than this are never materialized
_SPACE_CAP = 1 << 20

# candidate counts up to which the whole adjacency is built (at most 8 MB of
# bitsets) and the colouring bound is used; above it, rows are built per node
_ADJ_CAP = 1 << 13

# adjacency rows computed per numpy pass
_ROW_BLOCK = 32


def exists_code(
    q: int,
    n: int,
    m: int,
    d: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    meter: Optional[_Meter] = None,
) -> ExistsOutcome:
    """Decide realizability of the triple (n, m, d) over a q-letter alphabet.

    FOUND returns a witness whose minimum distance is exactly d (a witness
    clique with larger distance is walked down by the spoiling moves, which
    preserve n and m). IMPOSSIBLE is returned only after exhausting the
    reduced search space. ``meter`` charges the search to a meter shared
    with earlier calls, so that one budget covers a whole query; by
    default the call meters itself against ``budget``. A distance-1 query
    is answered by the first m words in lexicographic order, and refuses
    m > ``_SPACE_CAP`` as the random ensembles do.
    """
    check_alphabet(q)
    if n < 1 or m < 1 or not at_most_power(m, q, n) or not 0 <= d <= n:
        raise ContractViolationError(f"malformed triple (n={n}, m={m}, d={d}) for q={q}")
    if m == 1:
        if d != 0:
            raise ContractViolationError("singleton triples have d = 0")
        return ExistsOutcome(ExistsStatus.FOUND, Code.from_words(q, [bytes(n)]), 0)
    if d == 0:
        raise ContractViolationError("d = 0 is reserved for singletons")
    if d == 1:
        # the first m words in lex order contain a pair at distance exactly 1
        if m > _SPACE_CAP:
            raise ContractViolationError(f"distance-1 witness of {m} words exceeds {_SPACE_CAP}")
        words = _as_words(_word_rows(np.arange(m), q, n))
        return ExistsOutcome(ExistsStatus.FOUND, Code.from_words(q, words), 0)
    if at_most_power(_SPACE_CAP + 1, q, n):  # q**n > _SPACE_CAP
        return ExistsOutcome(
            ExistsStatus.UNKNOWN, None, 0, reason=f"search space q^n > {_SPACE_CAP}"
        )

    if meter is None:
        meter = _Meter(budget)
    start = meter.nodes
    found = _clique_search(q, n, m, d, meter)
    nodes = meter.nodes - start
    if found is None:
        if meter.exhausted():
            return ExistsOutcome(ExistsStatus.UNKNOWN, None, nodes, reason="budget")
        return ExistsOutcome(ExistsStatus.IMPOSSIBLE, None, nodes, reason="exhausted")
    code = Code.from_words(q, _as_words(_word_rows(found, q, n)))
    actual, _ = min_distance(code)
    if actual > d:
        code = spoiling.reduce_distance_exact(code, d)
    return ExistsOutcome(ExistsStatus.FOUND, code, nodes)


def _candidates(q: int, n: int, d: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Values of the words of weight >= d in lexicographic order, and for
    q > 2 their symbol rows (binary distances come from the values)."""
    values = np.arange(q ** n, dtype=np.int64)
    if q == 2:
        return values[np.bitwise_count(values) >= d], None
    words = _word_rows(values, q, n)
    keep = np.count_nonzero(words, axis=1) >= d
    return values[keep], words[keep]


def _adjacency_rows(values, words, d: int, lo: int, hi: int) -> list[int]:
    """Rows lo..hi-1 of the compatibility graph as bitsets: bit j of row i
    is set iff candidates i and j are at distance >= d."""
    if words is None:
        dist = np.bitwise_count(values[lo:hi, None] ^ values[None, :])
    else:
        dist = np.count_nonzero(words[lo:hi, None, :] != words[None, :, :], axis=2)
    bits = np.packbits(dist >= d, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _colour_tops(pool: int, adj: list[int]) -> int:
    """Bitset of the top vertex of each class of a greedy colouring of pool.

    Classes are filled one at a time from the highest uncoloured vertex
    down, which is first-fit colouring in descending order: the classes
    meeting the vertices >= v are then the colours those vertices use, so
    counting tops >= v bounds the clique among them.
    """
    tops = 0
    while pool:
        tops |= 1 << (pool.bit_length() - 1)
        rest = pool
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            pool ^= bit
            rest = (rest ^ bit) & ~adj[v]
    return tops


def _clique_search(q: int, n: int, m: int, d: int, meter: _Meter) -> Optional[list[int]]:
    """Lexicographically first size-m clique containing the zero word, as
    word values; None when the space or the meter runs out."""
    values, words = _candidates(q, n, d)
    k = len(values)
    adj = None
    if k <= _ADJ_CAP:
        adj = [
            row
            for lo in range(0, k, _ROW_BLOCK)
            for row in _adjacency_rows(values, words, d, lo, min(k, lo + _ROW_BLOCK))
        ]
    target = m - 1  # beyond the fixed zero word
    chosen: list[int] = []
    pools = [(1 << k) - 1]  # each frame's untried candidates
    tops = [0]  # each frame's colour-class tops; 0 until its first child fails
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
                row = adj[v] if adj is not None else _adjacency_rows(values, words, d, v, v + 1)[0]
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
            tops[-1] = _colour_tops(pool, adj)
    return [0] + [int(values[v]) for v in chosen]


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
    d downward with the existence oracle, all steps charged to one meter;
    the first realizable d is the maximum, and the witness clique attains
    it exactly.
    """
    if m == 1:
        return OracleOutcome(OracleStatus.EXACT, 0, exists_code(q, n, 1, 0, budget).witness, 0)
    if linear:
        k = floor_log_q(m, q)
        if q ** k != m:
            raise ContractViolationError("linear mode requires cardinality q**k")
        return _best_linear(q, n, k, budget)
    meter = _Meter(budget)
    for d in range(n, 0, -1):
        outcome = exists_code(q, n, m, d, budget, meter=meter)
        if outcome.status is ExistsStatus.UNKNOWN:
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, outcome.reason)
        if outcome.found:
            return OracleOutcome(OracleStatus.EXACT, d, outcome.witness, meter.nodes)
    raise ContractViolationError("unreachable: d = 1 is always realizable")


# tails per numpy pass of the linear search, and the cap on tails x messages
_TAIL_CHUNK = 1 << 16
_CHUNK_WORK = 1 << 20


def _best_linear(q: int, n: int, k: int, budget: SearchBudget) -> OracleOutcome:
    if not 1 <= k <= n:
        raise ContractViolationError("need 1 <= k <= n")
    field = GF(q)
    if k == n:
        gen = GeneratorMatrix(field, tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n)))
        return OracleOutcome(OracleStatus.EXACT, 1, LinearCode(gen), 0)
    tail_cols = n - k
    if q > 2 and at_most_power(_SPACE_CAP + 1, q, k * tail_cols):
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, 0, reason="space too large")
    total = 1 << (k * tail_cols) if q == 2 else q ** (k * tail_cols)
    meter = _Meter(budget)
    if total > meter.cap:
        # one node per tail: the scan would stop at tail cap + 1
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.cap + 1, reason="budget")
    if total >> 62:
        # only reachable under a node cap no run could ever spend
        return OracleOutcome(OracleStatus.UNKNOWN, None, None, 0, reason="space too large")
    if q == 2:
        ops = (np.bitwise_xor, lambda c, part: part, np.bitwise_count)
    else:
        add, mul = field.tables
        ops = (
            lambda a, b: add[a, b],
            lambda c, part: mul[c][part],
            lambda word: np.count_nonzero(word, axis=1),
        )
    # messages a chunk walks at most: after the one-row messages every
    # minimum is <= n - k + 1 (Singleton), which stops the walk there
    messages = sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in range(1, min(k, tail_cols) + 1))
    chunk = max(1, min(_TAIL_CHUNK, _CHUNK_WORK // messages))
    best_d, best_tail = 0, None
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        meter.nodes += hi - lo
        if meter.exhausted():
            return OracleOutcome(OracleStatus.UNKNOWN, None, None, meter.nodes, reason="budget")
        tails = np.arange(lo, hi, dtype=np.int64)
        found = _best_tail(_tail_rows(tails, q, k, tail_cols), tails, q, n, ops, best_d)
        if found is not None:
            best_d, best_tail = found
    if q == 2:
        tail = [(best_tail >> (r * tail_cols + tail_cols - 1 - b)) & 1
                for r in range(k) for b in range(tail_cols)]
    else:
        tail = _word_rows([best_tail], q, k * tail_cols)[0].tolist()
    rows = tuple(
        tuple(1 if c == r else 0 for c in range(k)) + tuple(tail[r * tail_cols:(r + 1) * tail_cols])
        for r in range(k)
    )
    witness = LinearCode(GeneratorMatrix(field, rows))
    return OracleOutcome(OracleStatus.EXACT, best_d, witness, meter.nodes)


def _tail_rows(tails, q: int, k: int, tail_cols: int) -> list:
    """Row r of the tail A for every tail index: binary rows are the bits
    r(n-k).. of the index, packed (bit 0 is the last column); q-ary rows
    are digit arrays, the index holding the entries of A row by row as
    base-q digits, most significant first (``itertools.product`` order).

    Binary tail t is the q-ary tail t with its rows reversed, so the table
    lane with that reversal reproduces the binary lane's d, node counts and
    witnesses (checked on every binary (n, k) with k(n-k) <= 18). The packed
    lane stays for speed: on a 2-vCPU x86-64 machine the table lane took
    82 ms against 5 ms on (n, k) = (8, 4) and 267 ms against 41 ms on (9, 4)."""
    if q == 2:
        mask = (1 << tail_cols) - 1
        return [(tails >> (r * tail_cols)) & mask for r in range(k)]
    digits = _word_rows(tails, q, k * tail_cols)
    return [digits[:, r * tail_cols:(r + 1) * tail_cols] for r in range(k)]


def _best_tail(rows, tails, q: int, n: int, ops, best_d: int) -> Optional[tuple[int, int]]:
    """(minimum distance, tail) of the first of ``tails`` whose code has the
    largest minimum distance, if that beats ``best_d``; else None.

    ``rows[r]`` holds row r of every tail's A; ``ops`` is (add, scale,
    weight) over such arrays. Messages are walked by their number w of
    nonzero coefficients, each up to a scalar (leading coefficient 1, as
    scaling keeps the weight). A codeword of such a message weighs w plus
    the weight of its tail part, so once every running minimum is <= w
    the minima are exact and the walk stops. Tails whose minimum drops to
    ``best_d`` cannot win and leave the walk.
    """
    add, scale, weight = ops
    k = len(rows)
    lowest = np.full(len(tails), n + 1, dtype=np.int64)
    for w in range(1, k + 1):
        if lowest.max() <= w:
            break
        for support in itertools.combinations(range(k), w):
            for coeffs in itertools.product(range(1, q), repeat=w - 1):
                word = rows[support[0]]
                for c, r in zip(coeffs, support[1:]):
                    word = add(word, scale(c, rows[r]))
                np.minimum(lowest, weight(word) + w, out=lowest)
                alive = lowest > best_d
                if not alive.all():
                    if not alive.any():
                        return None
                    lowest, tails = lowest[alive], tails[alive]
                    rows = [row[alive] for row in rows]
    top = int(np.argmax(lowest))  # the first maximum, i.e. the lowest tail
    return int(lowest[top]), int(tails[top])


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
    check_alphabet(q)
    if not 1 <= d <= n:
        raise ContractViolationError("need 1 <= d <= n")
    return _sieved_code(q, _scan_chunks(q, n, budget), d, target_m)


# spaces up to this size are scanned in shuffled order, larger ones by an affine walk
_SHUFFLE_SPACE = 1 << 16

# words per chunk of the scan order: the first chunk, and the cap as chunks double
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096


def _scan_chunks(q: int, n: int, budget: SearchBudget) -> Iterator[np.ndarray]:
    """The greedy scan order as word rows, in chunks that double in size, so
    that an early stop builds few rows. The order depends on q, n, the
    seed and the node cap, not on the distance."""
    rng = random.Random(budget.rng_seed)
    space = q ** n
    scan_cap = min(space, budget.max_nodes)
    if space <= _SHUFFLE_SPACE:
        order = list(range(space))
        rng.shuffle(order)

        def values(lo: int, hi: int):
            return order[lo:hi]
    else:
        mult = rng.randrange(1, space) | 1
        while math.gcd(mult, space) != 1:
            mult += 2
        offset = rng.randrange(space)

        def values(lo: int, hi: int):
            return [(mult * t + offset) % space for t in range(lo, hi)]
    lo, size = 0, _FIRST_CHUNK
    while lo < scan_cap:
        hi = min(scan_cap, lo + size)
        yield _word_rows(values(lo, hi), q, n)
        lo, size = hi, min(2 * size, _MAX_CHUNK)


def _sieved_code(q: int, chunks: Iterable[np.ndarray], d: int, target_m: Optional[int]) -> Code:
    """The greedy code of a scan order given as chunks of distinct word rows."""
    limit = None if target_m is None else max(1, target_m)
    if d > 1:
        return Code.from_words(q, _as_words(greedy_sieve(chunks, q, d, limit)))
    # distinct words are at distance >= 1: the scan keeps every word
    taken, count = [], 0
    for rows in chunks:
        taken.append(rows)
        count += len(rows)
        if limit is not None and count >= limit:
            break
    return Code.from_words(q, _as_words(np.concatenate(taken)[:limit]))


def _word_rows(values, q: int, n: int) -> np.ndarray:
    """Word rows (base-q digits, most significant first) of word values below
    q**n, given as a numpy integer array or a sequence of Python ints."""
    rows = np.empty((len(values), n), dtype=np.uint8)
    per_limb = 62 // (q - 1).bit_length()  # digits per int64 limb
    rest = values if n <= per_limb else [int(v) for v in values]
    for end in range(n, 0, -per_limb):
        start = max(0, end - per_limb)
        if start:
            base = q ** (end - start)
            limb = np.array([v % base for v in rest], dtype=np.int64)
            rest = [v // base for v in rest]
        else:
            limb = np.array(rest, dtype=np.int64)
        for pos in range(end - 1, start - 1, -1):
            rows[:, pos] = limb % q
            limb //= q
    return rows


def _as_words(rows: np.ndarray) -> list[bytes]:
    """The rows of a uint8 matrix as words."""
    return np.ascontiguousarray(rows).view(f"V{rows.shape[1]}").ravel().tolist()


# symbols per round of random_ensemble's draws at most, which bounds a round's memory
_DRAW_SYMBOLS = 1 << 20


def _raw_outputs(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit outputs of rng's Mersenne Twister, in order:
    ``getrandbits(32 * count)`` packs them as little-endian 32-bit words and
    advances the state exactly as ``count`` calls to ``getrandbits(32)``."""
    raw = bytearray(rng.getrandbits(32 * count).to_bytes(4 * count, "little"))
    return np.frombuffer(raw, dtype="<u4")


def _draw_words(rng: random.Random, q: int, n: int, count: int) -> np.ndarray:
    """Rows of the next ``count`` words that ``count`` per-word draws would
    give (``getrandbits(n)`` for q = 2, n calls to ``randrange(q)``
    otherwise), consuming exactly the same outputs of rng."""
    if q == 2:
        # getrandbits(n) takes ceil(n/32) outputs, low bits first, and keeps
        # the top n % 32 bits of the last one
        per_word = -(-n // 32)
        raw = _raw_outputs(rng, count * per_word).reshape(count, per_word)
        if n % 32:
            raw[:, -1] >>= np.uint32(32 - n % 32)
        bits = np.unpackbits(raw.view(np.uint8), axis=1, count=n, bitorder="little")
        return bits[:, ::-1]
    # randrange(q) keeps the top q.bit_length() bits of an output when they
    # are below q and draws again otherwise. Every missing symbol takes at
    # least one output, so drawing one per missing symbol never overshoots.
    shift = np.uint32(32 - q.bit_length())
    symbols = np.empty(count * n, dtype=np.uint8)
    filled = 0
    while filled < len(symbols):
        raw = _raw_outputs(rng, len(symbols) - filled) >> shift
        raw = raw[raw < q]
        symbols[filled:filled + len(raw)] = raw
        filled += len(raw)
    return symbols.reshape(count, n)


def random_ensemble(
    q: int,
    n: int,
    m: int,
    trials: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[tuple[Code, int]]:
    """Uniform random cardinality-m codes with their exact minimum distances.

    A trial draws words one at a time until m distinct ones are seen; the
    draws run in rounds of at most as many words as are still missing,
    which cannot pass that stopping point. Codes of more than ``_SPACE_CAP``
    words are refused, since every word of every trial is materialized.
    """
    check_alphabet(q)
    if not 1 <= m <= q ** n:
        raise ContractViolationError("cardinality out of range")
    if m > _SPACE_CAP:
        raise ContractViolationError(f"ensemble cardinality {m} exceeds {_SPACE_CAP}")
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = random.Random(budget.rng_seed)
    results = []
    full_space = m == q ** n
    for _ in range(trials):
        if full_space:
            words = _as_words(_word_rows(np.arange(m), q, n))
        else:
            seen: set[bytes] = set()
            while len(seen) < m:
                count = min(m - len(seen), max(1, _DRAW_SYMBOLS // n))
                seen.update(_as_words(_draw_words(rng, q, n, count)))
            words = seen
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
        # one scan order serves every distance; an affine walk is cheap to
        # restart, a shuffled order is built once
        order = list(_scan_chunks(q, n, budget)) if q ** n <= _SHUFFLE_SPACE else None
        for dist in range(1, n + 1):
            chunks = order if order is not None else _scan_chunks(q, n, budget)
            add(params(_sieved_code(q, chunks, dist, None)), "greedy")


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
            if d == 1:
                # realizable by the first m words, as exists_code answers, and refused above its cap
                if m > _SPACE_CAP:
                    raise ContractViolationError(f"distance-1 witness of {m} words exceeds {_SPACE_CAP}")
                verified.append(CodeParams(q=q, n=n, m=m, d=d))
                continue
            outcome = exists_code(q, n, m, d, budget)
            if outcome.found:
                verified.append(CodeParams(q=q, n=n, m=m, d=d))
            elif outcome.status is ExistsStatus.UNKNOWN:
                unknown.append((n, m, d))
            else:
                break  # no m-word code has distance >= d, so no larger code does
    return MultiplicityReport(point=point, verified=tuple(verified), unknown=tuple(unknown))
