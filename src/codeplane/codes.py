"""Words, block codes, exact parameters, and the rate/distance point map.

A word is a ``bytes`` value with one symbol per byte (alphabet sizes up to
256), so distance kernels can run on packed buffers. Codes are immutable:
the word tuple is sorted and deduplicated at construction, and all derived
quantities are exact.

The parameter triple of a code is (length n, cardinality m, minimum
distance d) over an alphabet of size q, with the degenerate convention
d = 0 exactly for singleton codes. Its plane point is

    (floor(log_q m) / n,  d / n)

computed with exact integer floors; no floating logarithm is involved
anywhere on this path. ``rate_real`` provides the real-valued rate
log_q(m)/n as a certified enclosure instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import kernels
from .budget import _Meter
from .enclosure import log_enclosure
from .errors import ContractViolationError
from .geometry import RatInterval, RatPoint, format_ratio

Word = bytes

# symbols serialize as base-36 characters in code files
SYMBOL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_TO_SYMBOL = {c: i for i, c in enumerate(SYMBOL_CHARS)}


def word_from_text(text: str, q: int) -> Word:
    symbols = []
    for ch in text.strip():
        if ch not in _CHAR_TO_SYMBOL:
            raise ContractViolationError(f"invalid symbol character {ch!r}")
        symbols.append(_CHAR_TO_SYMBOL[ch])
    word = bytes(symbols)
    validate_word(word, q)
    return word


# symbol s -> its character, as a bytes.translate table; a symbol past the
# last character is refused before any translation
_SYMBOL_TABLE = SYMBOL_CHARS.encode().ljust(256, b"?")


def word_to_text(word: Word) -> str:
    if word and max(word) >= len(SYMBOL_CHARS):
        raise ContractViolationError("text form supports alphabets up to 36 symbols")
    return word.translate(_SYMBOL_TABLE).decode("ascii")


def check_alphabet(q: int) -> None:
    """Reject alphabets that do not fit the one-symbol-per-byte word layout."""
    if not 2 <= q <= 256:
        raise ContractViolationError(f"alphabet size must be in [2, 256], got {q}")


def validate_word(word: Word, q: int, n: Optional[int] = None) -> None:
    check_alphabet(q)
    if len(word) < 1:
        raise ContractViolationError("words must have length >= 1")
    if n is not None and len(word) != n:
        raise ContractViolationError(f"expected length {n}, got {len(word)}")
    if any(s >= q for s in word):
        raise ContractViolationError(f"symbol out of range for alphabet size {q}")


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where the words differ; lengths must match."""
    if len(a) != len(b):
        raise ContractViolationError("hamming distance requires equal-length words")
    return int(kernels.hamming(a, b))


@dataclass(frozen=True)
class Code:
    """Immutable unstructured block code: a nonempty set of equal-length words."""

    q: int
    n: int
    words: tuple[Word, ...]

    def __post_init__(self):
        # checked on the packed buffer: no Python code runs per symbol
        check_alphabet(self.q)
        if not self.words:
            raise ContractViolationError("codes are nonempty")
        if self.n < 1:
            raise ContractViolationError("words must have length >= 1")
        if set(map(len, self.words)) != {self.n}:
            raise ContractViolationError(f"every word must have length {self.n}")
        if np.frombuffer(self.packed(), dtype=np.uint8).max() >= self.q:
            raise ContractViolationError(f"symbol out of range for alphabet size {self.q}")
        if len(set(self.words)) != len(self.words):
            raise ContractViolationError("duplicate word in code")
        if list(self.words) != sorted(self.words):
            raise ContractViolationError("words must be sorted; use Code.from_words")

    @classmethod
    def from_words(cls, q: int, words: Iterable[Word]) -> "Code":
        unique = sorted(set(map(bytes, words)))
        if not unique:
            raise ContractViolationError("codes are nonempty")
        return cls(q=q, n=len(unique[0]), words=tuple(unique))

    @property
    def m(self) -> int:
        return len(self.words)

    def packed(self) -> bytes:
        """All words concatenated, for the distance kernels."""
        return b"".join(self.words)


def min_distance(code: Code, meter: Optional[_Meter] = None) -> tuple[int, Optional[tuple[Word, Word]]]:
    """Exact minimum pairwise distance with one attaining pair.

    Singletons return (0, None) by the degenerate convention. The witness
    is the first attaining pair in row-major scan order of the sorted word
    list, which makes downstream coordinate choices deterministic.
    """
    if code.m == 1:
        return 0, None
    d, i, j = kernels.min_pairwise(code.packed(), code.m, code.n, meter=meter)
    return int(d), (code.words[i], code.words[j])


@dataclass(frozen=True)
class CodeParams:
    """Exact parameter triple (n, m, d) over an alphabet of size q."""

    q: int
    n: int
    m: int
    d: int

    def __post_init__(self):
        check_alphabet(self.q)
        if self.n < 1:
            raise ContractViolationError("length must be >= 1")
        if self.m < 1 or not at_most_power(self.m, self.q, self.n):
            raise ContractViolationError("cardinality out of range [1, q^n]")
        if not 0 <= self.d <= self.n:
            raise ContractViolationError("distance out of range [0, n]")
        if (self.d == 0) != (self.m == 1):
            raise ContractViolationError("d = 0 exactly for singleton codes")

    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.d)


def params(code: Code, meter: Optional[_Meter] = None) -> CodeParams:
    d, _ = min_distance(code, meter)
    return CodeParams(q=code.q, n=code.n, m=code.m, d=d)


def at_most_power(m: int, q: int, n: int) -> bool:
    """m <= q**n, without building the power when n alone settles it."""
    return n >= m.bit_length() or m <= q ** n


def floor_log_q(m: int, q: int) -> int:
    """Largest t with q**t <= m, by exact integer comparison."""
    if m < 1:
        raise ContractViolationError("cardinality must be >= 1")
    if q < 2:
        raise ContractViolationError("alphabet size must be >= 2")
    t = 0
    power = q
    while power <= m:
        t += 1
        power *= q
    return t


def code_point(p: CodeParams) -> RatPoint:
    """Exact plane point (floor(log_q m)/n, d/n); ``CodeParams`` keeps it in the unit square."""
    return RatPoint(Fraction(floor_log_q(p.m, p.q), p.n), Fraction(p.d, p.n))


def rate_real(p: CodeParams, precision: int) -> RatInterval:
    """Certified enclosure of the real rate log_q(m)/n, width <= 2**-precision.

    Exact (a single rational) when m is a pure power of q, so it agrees
    with ``code_point`` on integral dimensions.
    """
    t = floor_log_q(p.m, p.q)
    if p.q ** t == p.m:
        return RatInterval.point(Fraction(t, p.n))
    inner = log_enclosure(Fraction(p.m), p.q, precision)
    return inner.scale(Fraction(1, p.n))


def encode_triple(triple: tuple[int, int, int], q: int) -> int:
    """Position of a well-formed (n, m, d) triple in the canonical numbering.

    The ambient decidable set is {(n, m, d) : n >= 1, 1 <= m <= q**n,
    1 <= d <= n}; triples are ordered by n, then d, then m, which makes the
    map a bijection with the naturals (see ``decode_triple``).
    """
    n, m, d = triple
    if n < 1 or not 1 <= d <= n or not 1 <= m <= q ** n:
        raise ContractViolationError(f"malformed triple {triple} for q={q}")
    index = 0
    power = q
    for length in range(1, n):
        index += length * power
        power *= q
    return index + (d - 1) * power + (m - 1)


def decode_triple(index: int, q: int) -> tuple[int, int, int]:
    """Inverse of ``encode_triple``; defined for every natural number."""
    if index < 0:
        raise ContractViolationError("index must be a natural number")
    n = 1
    power = q
    while index >= n * power:
        index -= n * power
        n += 1
        power *= q
    d = index // power + 1
    m = index % power + 1
    return (n, m, d)


# --- code file format: header "q n m", then m rows of base-36 symbols ---


def write_code_text(code: Code) -> str:
    text, n = word_to_text(code.packed()), code.n  # one symbol check, one translation
    lines = [f"{code.q} {n} {code.m}", *(text[i:i + n] for i in range(0, len(text), n))]
    return "\n".join(lines) + "\n"


def read_code_text(text: str) -> Code:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ContractViolationError("empty code file")
    try:
        q, n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ContractViolationError(f"bad code header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise ContractViolationError(f"expected {m} words, found {len(body)}")
    words = [word_from_text(ln, q) for ln in body]
    code = Code.from_words(q, words)
    if code.n != n or code.m != m:
        raise ContractViolationError("code body disagrees with header")
    return code


def csv_point_row(p: CodeParams) -> list[str]:
    """Row for the point-cloud CSV schema: n, m, d, R, delta, R_float, delta_float.

    Written from the integers (floor(log_q m), d, n): k / n is float(Fraction(k, n)),
    since int true division is correctly rounded.
    """
    t = floor_log_q(p.m, p.q)
    return [str(p.n), str(p.m), str(p.d), format_ratio(t, p.n), format_ratio(p.d, p.n),
            f"{t / p.n:.12g}", f"{p.d / p.n:.12g}"]
