"""Desk-scale code search: exact existence decisions under explicit budgets.

``exists_code`` decides whether a parameter triple is realizable by
branch-and-bound over the distance->=d compatibility graph, with three
standard symmetry reductions: the first word is fixed to all-zeros (any
code translates onto one containing it, coordinate-wise, by a distance-
preserving symbol relabeling), the remaining words are chosen in
strictly increasing lexicographic order, and a prefix is dropped when an
isometry fixing the zero word maps each of its completions to a
lexicographically smaller code (isomorph rejection: McKay, J. Algorithms
26, 1998; Kaski and Östergård, Classification Algorithms for Codes and
Designs, 2006). A negative answer is therefore an exhaustion certificate,
not a heuristic; budget exhaustion is a third, explicit outcome rather
than an error.

The branch-and-bound is one explicit-stack depth-first walk over bitsets
(Python ints, bit i standing for the i-th candidate word in lexicographic
order): the graph is one adjacency row per candidate, which
``kernels.far_bitsets`` computes from the candidates' packed rows, and a
stack frame holds only ints, its untried pool and, once needed, the tops
of its colour classes. A frame branches on its pool in ascending order and
gives up when the words chosen so far plus an upper bound on the clique
left in the pool fall short of m. The bound is the pool's popcount until
the frame's first child has failed; from then on it is the number of
classes of a greedy colouring of the untried pool whose top vertex is at
or above the next candidate: each class is an independent set, so a clique
takes at most one word from it (Östergård 2002; San Segundo et al. 2011).
Colouring only after a failure keeps descents that never backtrack free of
its cost. Both bounds are sound and the branching order is the
lexicographic one, so the first clique found, hence every witness, is that
of a plain lexicographic search, and the walk visits only nodes that
search visits.

The orbit pruning uses generators g of the isometries fixing the zero
word: the coordinate transpositions and, for q > 2, the transpositions of
two nonzero symbols in one coordinate. Each is an involution that maps
candidates to candidates and cliques to cliques. For a frame whose chosen
words form the sorted prefix P, let t_g = min(P minus gP), infinite when
gP = P; a candidate u > max P is pruned when some g has g(u) < min(t_g, u).
Let S = P + [u]. Each element of S outside gS exceeds g(u): one of P lies
in P minus gP, so it is at least t_g, and u > g(u). And g(u) lies in gS
but not in S: were g(u) in P, its image u would not be, which puts g(u)
in P minus gP, below t_g. So sorted(gS) is lexicographically smaller than
S. A completion C adds only words above u, so S is its first |S| words,
and the i-th smallest element of gC is at most the i-th smallest of gS:
sorted(gC) is smaller than C too. gC is a clique containing zero, so C is
not the first clique. A pruned candidate counts as a failed child: the
frame drops it and colours its pool then if it has not yet. Each frame's
state is thus that of the unpruned walk minus whole subtrees, so every
witness is kept, no node is added and IMPOSSIBLE still exhausts. Only
frames with fewer than ``_ORBIT_DEPTH`` chosen words prune, each with a
mask computed when it first picks a candidate after the walk's first
backtrack, from a table of every generator's images over the candidates
built for the first such mask. The table needs the full adjacency, so
a descent that never backtracks pays nothing for the pruning.

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
generator. The greedy codes scan spaces of up to 2^16 words in the order
of ``shuffle``, and larger ones by an affine walk from two ``randrange``
draws. From 4,096 words on, ``_shuffled_order`` builds the shuffled order
from batched draws as well: it settles the shuffle's ``randbelow`` draws
from windows of raw outputs, then traces every position back through the
swaps in a few numpy passes, so it gives ``shuffle``'s list and leaves the
generator where ``shuffle`` does. The order depends on the length but not
on the distance, so one order serves a whole distance sweep;
``kernels.greedy_sieve`` then keeps each word at distance >= d from the
words kept before it.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import spoiling
from .budget import DEFAULT_BUDGET, DEFAULT_SEED, SearchBudget, _Meter  # noqa: F401 - re-exported
from .codes import Code, CodeParams, at_most_power, check_alphabet, code_point, floor_log_q, params
from .codes import min_distance  # unused here; perfbench's tracer test reads this binding
from .errors import ContractViolationError
from .fields import GF
from .geometry import RatPoint
from .kernels import all_at_least  # unused here; perfbench/tracing.py binds this name
from .kernels import far_bitsets, greedy_sieve, min_pairwise, pack_rows
from .linear import GeneratorMatrix, LinearCode, seed_family, to_code


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

# frames with fewer chosen words than this compute and apply an orbit prune
# mask, deeper ones skip it: with no cap, (2, 8, 20, 3) took about 45 us per
# node over 10^5 nodes, against about 5 us with this cap (2-vCPU x86-64)
_ORBIT_DEPTH = 4

# generator images held at most (as much memory as the adjacency at its cap),
# and computed per numpy pass
_IMAGE_CAP = 1 << 22
_IMAGE_BLOCK = 1 << 16


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
    return ExistsOutcome(ExistsStatus.FOUND, spoiling.reduce_distance_exact(code, d), nodes)


def _candidates(q: int, n: int, d: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Values of the words of weight >= d in lexicographic order, and for
    q > 2 their symbol rows (binary distances come from the values)."""
    values = np.arange(q ** n, dtype=np.int64)
    if q == 2:
        return values[np.bitwise_count(values) >= d], None
    words = _word_rows(values, q, n)
    keep = np.count_nonzero(words, axis=1) >= d
    return values[keep], words[keep]


def _packed_candidates(q: int, values: np.ndarray, words: Optional[np.ndarray]):
    """The candidates as the kernels' packed rows, with their field width:
    binary word values already are width-1 rows."""
    return (values.view(np.uint64), 1) if words is None else pack_rows(words, q - 1)


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


def _image_table(q: int, n: int, values: np.ndarray, words: Optional[np.ndarray]) -> np.ndarray:
    """Row g holds the candidate index of g(word v) for every candidate v,
    for each generator g: the coordinate transpositions (i, j), i < j, then
    for q > 2 the swaps of nonzero symbols a < b in one coordinate.

    Each generator is an involutive isometry that fixes the zero word, so it
    maps the candidates (weight >= d) onto themselves. Swapping the digits
    x_i and x_j adds (x_j - x_i)(q^(n-1-i) - q^(n-1-j)) to a word's value,
    and a dense value -> index array turns image values into indices."""
    rows = (words if words is not None else _word_rows(values, 2, n)).astype(np.int64)
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    a, b = np.triu_indices(q - 1, 1)
    a, b = a + 1, b + 1
    index = np.zeros(q ** n, dtype=np.min_scalar_type(len(values)))
    index[values] = np.arange(len(values))
    table = np.empty((len(i) + n * len(a), len(values)), dtype=index.dtype)
    step = max(1, _IMAGE_BLOCK // len(table))
    for lo in range(0, len(values), step):
        block = rows[lo:lo + step]
        digit = block[:, :, None]
        swaps = ((digit == a) * (b - a) + (digit == b) * (a - b)) * place[:, None]
        shifts = np.concatenate([(block[:, j] - block[:, i]) * (place[i] - place[j]),
                                 swaps.reshape(len(block), n * len(a))], axis=1)
        table[:, lo:lo + step] = index[values[lo:lo + step, None] + shifts].T
    return table


def _orbit_mask(images: np.ndarray, prefix: list[int]) -> int:
    """Bitset of the candidates u > max(prefix) that some generator g maps
    below min(t_g, u), where t_g = min(P minus gP) (infinite when gP = P)
    for the prefix P: no clique through prefix + [u] is lexicographically
    first (module docstring)."""
    lo = prefix[-1] + 1 if prefix else 0
    cols = images[:, lo:]
    k = images.shape[1]
    t = k  # t_g for every g, with k standing for infinity
    if prefix:
        chosen = np.array(prefix)
        # p is in P but not in gP iff g(p) is not in P, as g is an involution
        moved = (images[:, chosen, None] != chosen).all(axis=2)
        t = np.where(moved.any(axis=1), chosen[moved.argmax(axis=1)], k)[:, None]
    # t_g <= max(P) < u whenever t_g is finite, so g(u) < t_g implies g(u) < u
    hit = ((cols < np.arange(lo, k)) & (cols < t)).any(axis=0)
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little") << lo


def _clique_search(q: int, n: int, m: int, d: int, meter: _Meter) -> Optional[list[int]]:
    """Lexicographically first size-m clique containing the zero word, as
    word values; None when the space or the meter runs out."""
    values, words = _candidates(q, n, d)
    rows, width = _packed_candidates(q, values, words)
    k = len(values)
    adj = far_bitsets(rows, rows, width, d) if k <= _ADJ_CAP else None
    # the generators' image table, if it fits: built when a frame with fewer
    # than _ORBIT_DEPTH chosen words first picks a candidate after a backtrack
    fits = adj is not None and (n * (n - 1) + n * (q - 1) * (q - 2)) // 2 * k <= _IMAGE_CAP
    orbits, images = False, None
    target = m - 1  # beyond the fixed zero word
    chosen: list[int] = []
    pools = [(1 << k) - 1]  # each frame's untried candidates
    tops = [0]  # each frame's colour-class tops; 0 until its first child fails
    masks = [None]  # each frame's orbit prune mask; None until first needed
    while len(chosen) < target:
        pool = pools[-1]
        low = pool & -pool
        v = low.bit_length() - 1
        bound = (tops[-1] >> v).bit_count() if pool and tops[-1] else pool.bit_count()
        if pool and len(chosen) + bound >= target:
            pool ^= low
            pools[-1] = pool
            if orbits and len(chosen) < _ORBIT_DEPTH:
                if masks[-1] is None:
                    if images is None:
                        images = _image_table(q, n, values, words)
                    masks[-1] = _orbit_mask(images, chosen)
                pruned = masks[-1] >> v & 1
            else:
                pruned = False
            if not pruned:
                if not meter.spend():
                    return None
                row = adj[v] if adj is not None else far_bitsets(rows[v:v + 1], rows, width, d)[0]
                chosen.append(v)
                pools.append(pool & row)
                tops.append(0)
                masks.append(None)
                continue
            # no clique through v is the first one: v counts as a failed child
        else:
            pools.pop()
            tops.pop()
            masks.pop()
            if not chosen:
                return None
            chosen.pop()
            pool = pools[-1]
            orbits = fits
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
        rows, tails = _sorted_tails(np.arange(lo, hi, dtype=np.int64), q, k, tail_cols)
        found = _best_tail(rows, tails, q, n, ops, best_d) if len(tails) else None
        if found is not None:
            best_d, best_tail = found
    tail = _word_rows([best_tail], q, k * tail_cols)[0].reshape(k, tail_cols).tolist()
    rows = tuple(  # the index holds binary rows last to first
        tuple(1 if c == r else 0 for c in range(k)) + tuple(row)
        for r, row in enumerate(tail[::-1] if q == 2 else tail)
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
    lane stays for speed: scanning only sorted tails, in process on a 2-vCPU
    x86-64 machine (best of 15 runs, of 3 under a 10^8 node budget), the
    table lane took 4.7 ms against 0.8 ms on (n, k) = (8, 4), 0.78 s against
    0.14 s on (10, 4) and 1.59 s against 0.22 s on (10, 5)."""
    if q == 2:
        mask = (1 << tail_cols) - 1
        return [(tails >> (r * tail_cols)) & mask for r in range(k)]
    digits = _word_rows(tails, q, k * tail_cols)
    return [digits[:, r * tail_cols:(r + 1) * tail_cols] for r in range(k)]


def _sorted_tails(tails, q: int, k: int, tail_cols: int) -> tuple[list, np.ndarray]:
    """The rows (as ``_tail_rows``) and indices of the ``tails`` whose rows and
    columns are nondecreasing in index order (rows from the most significant,
    binary row k-1 or q-ary row 0). Permuting rows or columns keeps every
    weight, so the lowest-index best tail, least in its orbit, is among them."""
    width = q ** tail_cols
    if q == 2:
        # the first row read has sorted columns only if it is 0..01..1, v & (v + 1) == 0
        top = 1 << (k - 1) * tail_cols
        probe = tails + top
        probe &= tails
        tails = tails[probe < top]
    groups = _tail_rows(tails, q, k, tail_cols) if q == 2 else [tails // width ** j % width for j in range(k)]
    keep = np.ones(len(tails), dtype=bool)
    for low, high in zip(groups, groups[1:]):
        keep &= high <= low
    tails = tails[keep]
    rows = _tail_rows(tails, q, k, tail_cols)
    # each column against the next, down the rows in reading order, as (differ,
    # greater) per row: the first difference decides; binary row << 1 aligns the next
    if q == 2:
        undecided = np.full_like(tails, width - 2)
        compares = ((row ^ (row << 1), row) for row in reversed(rows))
    else:
        undecided = np.ones((len(tails), tail_cols - 1), dtype=bool)
        compares = ((row[:, :-1] != row[:, 1:], row[:, :-1] > row[:, 1:]) for row in rows)
    bad = np.zeros_like(undecided)
    for differ, greater in compares:
        bad |= undecided & differ & greater
        undecided &= ~differ
    keep = bad == 0 if q == 2 else ~bad.any(axis=1)
    return [row[keep] for row in rows], tails[keep]


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

    Stops early once ``target_m`` words are kept. Spaces of up to 2^16
    words use the order of ``random.shuffle`` (a full Fisher-Yates shuffle,
    rebuilt from batched draws from 4,096 words on); larger ones a seeded
    affine walk over word indices (full-period, so the scan covers the
    space given enough budget). Deterministic for a fixed budget; raises
    BudgetExceededError once the budget's wall clock runs out.
    """
    check_alphabet(q)
    if not 1 <= d <= n:
        raise ContractViolationError("need 1 <= d <= n")
    return _sieved_code(q, _scan_chunks(q, n, budget), d, target_m, _Meter(budget))


# spaces up to this size are scanned in rng.shuffle's order (from
# _shuffled_order at _BATCHED_SHUFFLE words or more), larger ones by an affine walk
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
        if space < _BATCHED_SHUFFLE:
            order = list(range(space))
            rng.shuffle(order)
        else:
            order = _shuffled_order(rng, space)

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


def _sieved_code(q: int, chunks: Iterable[np.ndarray], d: int, target_m: Optional[int],
                 meter: _Meter) -> Code:
    """The greedy code of a scan order given as chunks of distinct word rows."""
    limit = None if target_m is None else max(1, target_m)
    if d > 1:
        return Code.from_words(q, _as_words(greedy_sieve(chunks, q, d, limit, meter)))
    # distinct words are at distance >= 1: the scan keeps every word
    taken, count = [], 0
    for rows in chunks:
        meter.check()
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


# shuffles of at least this many words use _shuffled_order (against
# rng.shuffle, median of 201 runs, Python 3.11, 2-CPU x86-64 container:
# 2,048 words 1.31 ms against 1.17 ms, 4,096 words 1.97 ms against 2.17 ms,
# 6,561 words 2.18 ms against 3.55 ms; 65,536 words, 31 runs: 11.9 against 49.5 ms)
_BATCHED_SHUFFLE = 4096

# raw outputs per window of _shuffled_order's draws, at most
_SHUFFLE_WINDOW = 4096


def _shuffled_order(rng: random.Random, space: int) -> np.ndarray:
    """``rng.shuffle(list(range(space)))`` as an unsigned array, leaving rng in
    the state that call leaves it in.

    The shuffle swaps x[i] with x[j_i] for i = space - 1 ... 1, where
    j_i = randbelow(i + 1) keeps the top (i + 1).bit_length() bits of an
    output and draws again while they are >= i + 1. The draws come from
    windows of raw outputs, never more than draws are missing, so the
    generator ends where the shuffle leaves it. In a window from bound b,
    at most t draws are accepted before output t, so an output below b - t
    is accepted; at least the sure accepts before it are, so an output at
    or above b minus their count is not. Only the outputs in between are
    settled one at a time.

    No swap is applied. Traced back through the swaps, x[p] sits at j_p
    after step p, and each step i > p whose draw is where it sits moves it
    to i, so x[p] is where the chain p -> next step with draw j_p -> first
    step with draw v -> ... ends, v being the last step reached. A stable
    sort of the draws gives both hops, and pointer jumping every chain's
    end.
    """
    dtype = np.min_scalar_type(space - 1)
    draws = np.zeros(space, dtype=dtype)  # draws[i] = j_i, and j_0 = 0
    i, pending = space - 1, np.empty(0, dtype=np.uint32)
    while i:
        bound = i + 1
        bits = bound.bit_length()
        left = bound - (1 << (bits - 1)) + 1  # draws left with this bit length
        raw = np.concatenate((pending, _raw_outputs(rng, min(i, _SHUFFLE_WINDOW) - len(pending))))
        r = raw >> np.uint32(32 - bits)
        accepted = r < bound - np.arange(len(r))  # at most t accepts before output t
        least = np.cumsum(accepted)  # at unsure outputs, the sure accepts before them
        unsure = np.flatnonzero(~accepted & (r < bound - least))
        extra = 0  # unsure outputs accepted so far
        for t, low, value in zip(unsure.tolist(), least[unsure].tolist(), r[unsure].tolist()):
            if value < bound - low - extra:
                accepted[t] = True
                extra += 1
        # a shorter bit length keeps other bits of an output, so the outputs
        # after this bit length's last draw wait for the next window
        taken = np.flatnonzero(accepted)[:left]
        pending = raw[taken[-1] + 1:] if len(taken) == left else raw[:0]
        draws[i - len(taken) + 1:i + 1] = r[taken[::-1]]
        i -= len(taken)
    by_draw = np.argsort(draws, kind="stable").astype(dtype)  # a radix sort; ties by step
    ordered = draws[by_draw]
    head = np.ones(space, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    # the next step with the same draw (0 for none: no hop lands on step 0)
    after = np.zeros(space, dtype=dtype)
    after[by_draw[:-1]] = np.where(head[1:], 0, by_draw[1:])
    # a hop lands on a step v with j_v < v and goes on to the first step with
    # draw v: hop[v] is that step, or v itself where the chain ends
    hop = np.arange(space, dtype=dtype)
    hop[ordered[head]] = by_draw[head]
    moving = np.flatnonzero(hop[hop] != hop)  # pointer jumping on unfinished chains
    while len(moving):
        hop[moving] = hop[hop[moving]]
        moving = moving[hop[hop[moving]] != hop[moving]]
    return np.where(after != 0, hop[after], draws)


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
    One meter per call is checked between draw rounds and distance blocks.
    """
    check_alphabet(q)
    if not 1 <= m <= q ** n:
        raise ContractViolationError("cardinality out of range")
    if m > _SPACE_CAP:
        raise ContractViolationError(f"ensemble cardinality {m} exceeds {_SPACE_CAP}")
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    rng = random.Random(budget.rng_seed)
    meter = _Meter(budget)
    results = []
    full_space = m == q ** n
    for _ in range(trials):
        if full_space:
            words = _as_words(_word_rows(np.arange(m), q, n))
        else:
            seen: set[bytes] = set()
            while len(seen) < m:
                meter.check()
                count = min(m - len(seen), max(1, _DRAW_SYMBOLS // n))
                seen.update(_as_words(_draw_words(rng, q, n, count)))
            words = seen
        code = Code.from_words(q, words)
        if m == 1:
            results.append((code, 0))
        else:
            d, _, _ = min_pairwise(code.packed(), code.m, code.n, meter=meter)
            results.append((code, int(d)))
    return results


# --- point clouds ---------------------------------------------------------

STRATEGIES = ("exhaustive", "exhaustive-linear", "greedy", "random", "seeded-family")


@dataclass(frozen=True)
class PointCloudEntry:
    params: CodeParams
    provenance: str

    @property
    def point(self) -> RatPoint:
        return code_point(self.params)


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
            collected[key] = PointCloudEntry(p, provenance)

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
    meter = _Meter(budget)
    for n in range(1, n_max + 1):
        # one scan order serves every distance; an affine walk is cheap to
        # restart, a shuffled order (batched draws from 4,096 words) is built once
        order = list(_scan_chunks(q, n, budget)) if q ** n <= _SHUFFLE_SPACE else None
        for dist in range(1, n + 1):
            chunks = order if order is not None else _scan_chunks(q, n, budget)
            add(params(_sieved_code(q, chunks, dist, None, meter), meter), "greedy")


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

    frontier: list[tuple[Code, Optional[CodeParams]]] = [(c, None) for c in seeds if c.n <= n_max]
    visited: set[tuple[int, int, int]] = set()
    expansions = 0
    while frontier and expansions < _CLOSURE_CAP:
        code, p = frontier.pop()
        p = p or params(code)
        key = p.triple()
        if key in visited:
            continue
        visited.add(key)
        add(p, "seeded-family")
        expansions += 1
        # lengthen and puncture children have their triples by law: build only unvisited ones
        grown, cut = (p.n + 1, p.m, p.d), (p.n - 1, p.m, p.d - 1)
        if code.n < n_max and grown not in visited:
            frontier.append((spoiling.lengthen(code), CodeParams(q, *grown)))
        if code.n > 1 and p.d >= 2 and cut not in visited:
            frontier.append((spoiling.puncture(code), CodeParams(q, *cut)))
        if code.n > 1 and p.m > q:
            frontier.append((spoiling.shorten(code), None))


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
    point's multiplicity. One meter charges every search, so ``budget``
    caps the whole query; once it runs out, the triples left are unknown."""
    meter = _Meter(budget)
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
            if meter.exhausted():
                unknown.append((n, m, d))  # the query's budget is spent
                continue
            outcome = exists_code(q, n, m, d, budget, meter=meter)
            if outcome.found:
                verified.append(CodeParams(q=q, n=n, m=m, d=d))
            elif outcome.status is ExistsStatus.UNKNOWN:
                unknown.append((n, m, d))
            else:
                break  # no m-word code has distance >= d, so no larger code does
    return MultiplicityReport(point=point, verified=tuple(verified), unknown=tuple(unknown))
