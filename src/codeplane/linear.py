"""Linear codes over small prime-power fields, with exact minimum distance.

Minimum distance is the minimum weight of a nonzero codeword and is found
by full enumeration of all q^k codewords, capped by an explicit budget; the
library never reports an approximate distance as exact. Every codeword
comes from one engine over the field's add/mul tables: the span of the
generator's trailing rows is built once, and each codeword of the leading
rows shifts it into one block of words, so blocks follow message order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .codes import Code, CodeParams, floor_log_q
from .errors import BudgetExceededError, ContractViolationError, UnknownSeedFamilyError
from .fields import GF, FieldSpec

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_WORDS_CAP = 1 << 20

# codewords per block of the codeword engine at most
_BLOCK_WORDS = 4096


def pivot_step(field: FieldSpec, rows: list[list[int]], pivot: int, col: int) -> None:
    """Scale ``rows[pivot]`` to a 1 in ``col`` and clear ``col`` from every
    other row, in place; the rows keep their order."""
    inv = field.inv(rows[pivot][col])
    rows[pivot] = [field.mul(inv, x) for x in rows[pivot]]
    for r, row in enumerate(rows):
        if r != pivot and row[col] != 0:
            factor = row[col]
            rows[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(row, rows[pivot])]


def _rank(field: FieldSpec, rows: list[list[int]]) -> int:
    """Rank by Gauss-Jordan elimination: one pivot per column that has a
    nonzero entry outside the rows already pivoted."""
    rows = [row[:] for row in rows]
    pivots: set[int] = set()
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r, row in enumerate(rows) if r not in pivots and row[col] != 0), None)
        if pivot is not None:
            pivot_step(field, rows, pivot, col)
            pivots.add(pivot)
    return len(pivots)


def _span(rows: np.ndarray, add: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Every combination of ``rows`` as uint8 word rows, in ``itertools.product``
    order of the coefficients (the first row's coefficient varies slowest)."""
    span = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for row in rows[::-1]:
        span = np.concatenate([add[mul[c, row], span] for c in range(len(add))])
    return span


@dataclass(frozen=True)
class GeneratorMatrix:
    """Full-rank k x n matrix over a finite field, rows generate the code."""

    field: FieldSpec
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ContractViolationError("generator matrix needs at least one row")
        n = len(self.rows[0])
        for row in self.rows:
            if len(row) != n:
                raise ContractViolationError("ragged generator matrix")
            if any(not 0 <= x < self.field.q for x in row):
                raise ContractViolationError("entry outside the field")
        if _rank(self.field, [list(r) for r in self.rows]) != len(self.rows):
            raise ContractViolationError("generator matrix must have full rank")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


class LinearCode:
    """Linear [n, k] code; length, dimension and distance are exact values."""

    def __init__(self, gen: GeneratorMatrix):
        self.gen = gen

    @property
    def field(self) -> FieldSpec:
        return self.gen.field

    @property
    def q(self) -> int:
        return self.gen.field.q

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def k(self) -> int:
        return self.gen.k

    @property
    def m(self) -> int:
        return self.q ** self.k

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.q})"

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.gen == other.gen

    def __hash__(self):
        return hash(self.gen)

    @cached_property
    def d(self) -> int:
        return min_weight(self)

    def codeword_blocks(self, cap: int = DEFAULT_WORDS_CAP) -> Iterator[np.ndarray]:
        """All q^k codewords as uint8 rows in message order (``itertools.product``
        over the coefficients), in blocks of at most ``_BLOCK_WORDS`` words.

        The span of the last t rows, q^t <= ``_BLOCK_WORDS``, is built once;
        each codeword of the leading k - t rows, in message order, shifts it
        into the next block.
        """
        if self.m > cap:
            raise BudgetExceededError(
                f"q^k = {self.m} exceeds word enumeration cap", nodes=self.m, cap=cap
            )
        add, mul = self.field.tables
        rows = np.array(self.gen.rows, dtype=np.uint8)
        lead = self.k - min(self.k, floor_log_q(_BLOCK_WORDS, self.q))
        tail = _span(rows[lead:], add, mul)
        for shift in _span(rows[:lead], add, mul):
            yield add[shift, tail]

    def codewords(self):
        """Yield all q^k codewords as bytes, message order, up to ``DEFAULT_WORDS_CAP`` words."""
        for block in self.codeword_blocks(DEFAULT_WORDS_CAP):
            data = block.tobytes()
            yield from (data[i:i + self.n] for i in range(0, len(data), self.n))

    def params(self) -> CodeParams:
        return CodeParams(q=self.q, n=self.n, m=self.m, d=self.d)


def min_weight(code: LinearCode) -> int:
    """Exact minimum nonzero-codeword weight by full enumeration of at most ``DEFAULT_ENUM_CAP`` words."""
    if code.m > DEFAULT_ENUM_CAP:
        raise BudgetExceededError(
            f"q^k = {code.m} exceeds enumeration cap", nodes=code.m, cap=DEFAULT_ENUM_CAP
        )
    # the generator has full rank, so only the zero message gives a zero word
    weights = (np.count_nonzero(block, axis=1) for block in code.codeword_blocks(DEFAULT_ENUM_CAP))
    return min(int(w[w > 0].min(initial=code.n + 1)) for w in weights)


def to_code(code: LinearCode) -> Code:
    """Explicit word-set view; parameters match (n, q^k, d) exactly."""
    return Code.from_words(code.q, code.codewords())


# --- seed families -------------------------------------------------------


def _repetition(n: int, q: int) -> LinearCode:
    if n < 1:
        raise ContractViolationError("repetition length must be >= 1")
    return LinearCode(GeneratorMatrix(GF(q), ((1,) * n,)))


def _parity(n: int, q: int) -> LinearCode:
    """[n, n-1, 2] code whose words have coordinate sum zero."""
    if n < 2:
        raise ContractViolationError("parity-check length must be >= 2")
    field = GF(q)
    rows = []
    for r in range(n - 1):
        row = [0] * n
        row[r] = 1
        row[n - 1] = field.neg(1)
        rows.append(tuple(row))
    return LinearCode(GeneratorMatrix(field, tuple(rows)))


_HAMMING_7_4_TAILS = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def _hamming_7_4() -> LinearCode:
    rows = []
    for r in range(4):
        row = [0] * 4
        row[r] = 1
        rows.append(tuple(row) + _HAMMING_7_4_TAILS[r])
    return LinearCode(GeneratorMatrix(GF(2), tuple(rows)))


def _extended_hamming_8_4() -> LinearCode:
    base = _hamming_7_4()
    rows = []
    for row in base.gen.rows:
        rows.append(row + (sum(row) % 2,))
    return LinearCode(GeneratorMatrix(GF(2), tuple(rows)))


def product_code(a: LinearCode, b: LinearCode) -> LinearCode:
    """Tensor-product code: parameters multiply, [n1*n2, k1*k2, d1*d2]."""
    if a.q != b.q:
        raise ContractViolationError("product factors must share the field")
    field = a.field
    rows = []
    for ra in a.gen.rows:
        for rb in b.gen.rows:
            rows.append(tuple(field.mul(x, y) for x in ra for y in rb))
    return LinearCode(GeneratorMatrix(field, tuple(rows)))


def seed_family(name: str, *, n: Optional[int] = None, q: int = 2) -> LinearCode:
    """Built-in linear codes with documented exact parameters.

    Names: repetition (needs n), parity (needs n), hamming_7_4,
    extended_hamming_8_4.
    """
    if name == "repetition":
        if n is None:
            raise ContractViolationError("repetition needs n")
        return _repetition(n, q)
    if name == "parity":
        if n is None:
            raise ContractViolationError("parity needs n")
        return _parity(n, q)
    if name == "hamming_7_4":
        return _hamming_7_4()
    if name == "extended_hamming_8_4":
        return _extended_hamming_8_4()
    raise UnknownSeedFamilyError(f"unknown seed family {name!r}")


# --- generator matrix text format: header "q n k", then k rows ----------


def write_generator_text(code: LinearCode) -> str:
    lines = [f"{code.q} {code.n} {code.k}"]
    for row in code.gen.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_generator_text(text: str) -> LinearCode:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ContractViolationError("empty generator file")
    try:
        q, n, k = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ContractViolationError(f"bad generator header {lines[0]!r}") from exc
    if len(lines) - 1 != k:
        raise ContractViolationError(f"expected {k} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != n:
            raise ContractViolationError("row length disagrees with header")
        rows.append(row)
    return LinearCode(GeneratorMatrix(GF(q), tuple(rows)))
