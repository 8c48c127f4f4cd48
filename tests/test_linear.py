import itertools
import random

import pytest

from codeplane import linear
from codeplane.codes import min_distance, params
from codeplane.errors import BudgetExceededError, ContractViolationError, UnknownSeedFamilyError
from codeplane.fields import GF
from codeplane.linear import (
    GeneratorMatrix,
    LinearCode,
    min_weight,
    product_code,
    read_generator_text,
    seed_family,
    to_code,
    write_generator_text,
)
from codeplane.spoiling import puncture, shorten


def _exhaustive_min_weight_oracle(code):
    """Independent check: min pairwise distance of the explicit word set."""
    d, _ = min_distance(to_code(code))
    return d


def test_min_weight_examples():
    assert min_weight(seed_family("repetition", n=3, q=2)) == 3
    assert min_weight(seed_family("parity", n=3, q=2)) == 2
    ham = seed_family("hamming_7_4")
    assert min_weight(ham) == 3
    # the linear min weight equals the unstructured min distance
    assert _exhaustive_min_weight_oracle(ham) == 3


def test_to_code_matches_parameters():
    rep = seed_family("repetition", n=3, q=2)
    assert to_code(rep).words == (bytes(3), b"\x01\x01\x01")
    par = seed_family("parity", n=3, q=2)
    assert to_code(par).words == (bytes(3), b"\x00\x01\x01", b"\x01\x00\x01", b"\x01\x01\x00")
    ham = seed_family("hamming_7_4")
    p = params(to_code(ham))
    assert p.triple() == (7, 16, 3)


def test_seed_family_parameters():
    ext = seed_family("extended_hamming_8_4")
    assert (ext.n, ext.k, ext.d) == (8, 4, 4)
    assert params(to_code(ext)).triple() == (8, 16, 4)
    rep = seed_family("repetition", n=5, q=3)
    assert params(to_code(rep)).triple() == (5, 3, 5)
    par = seed_family("parity", n=4, q=2)
    assert params(to_code(par)).triple() == (4, 8, 2)
    with pytest.raises(UnknownSeedFamilyError):
        seed_family("nonesuch")


def test_product_code_parameters_multiply():
    rep = seed_family("repetition", n=3, q=2)
    par = seed_family("parity", n=3, q=2)
    prod = product_code(rep, par)
    assert (prod.n, prod.k, prod.d) == (9, 2, 6)
    assert params(to_code(prod)).triple() == (9, 4, 6)


def test_min_weight_invariant_under_column_permutation():
    rng = random.Random(11)
    base = seed_family("hamming_7_4")
    for _ in range(10):
        perm = list(range(base.n))
        rng.shuffle(perm)
        rows = tuple(tuple(row[p] for p in perm) for row in base.gen.rows)
        permuted = LinearCode(GeneratorMatrix(base.field, rows))
        assert min_weight(permuted) == base.d


def test_min_weight_generic_field_matches_exhaustive():
    field = GF(3)
    gen = GeneratorMatrix(field, ((1, 0, 1, 2), (0, 1, 2, 2)))
    code = LinearCode(gen)
    assert min_weight(code) == _exhaustive_min_weight_oracle(code)


def test_cardinality_is_exact_power():
    ham = seed_family("hamming_7_4")
    assert ham.m == 2 ** 4
    assert to_code(ham).m == 16


def test_generator_full_rank_enforced():
    field = GF(2)
    with pytest.raises(ContractViolationError):
        GeneratorMatrix(field, ((1, 0, 1), (1, 0, 1)))
    with pytest.raises(ContractViolationError):
        GeneratorMatrix(field, ((1, 2, 0),))  # entry outside field


@pytest.mark.parametrize("rows", [(), ((1, 0, 1), (0, 1))], ids=["no_rows", "ragged"])
def test_generator_shape_enforced(rows):
    with pytest.raises(ContractViolationError):
        GeneratorMatrix(GF(2), rows)


@pytest.mark.parametrize("text", ["", "\n \n", "2 3\n1 0 1\n", "2 x 1\n1 0 1\n", "2 3 2\n1 0 1\n0 1\n"],
                         ids=["empty", "blank", "short_header", "bad_header", "short_row"])
def test_generator_text_refusals(text):
    with pytest.raises(ContractViolationError):
        read_generator_text(text)


def test_enumeration_budget(monkeypatch):
    rows = tuple(
        tuple(1 if c == r else 0 for c in range(30)) for r in range(30)
    )
    big = LinearCode(GeneratorMatrix(GF(2), rows))
    with pytest.raises(BudgetExceededError):
        min_weight(big)
    monkeypatch.setattr(linear, "DEFAULT_WORDS_CAP", 1 << 10)
    with pytest.raises(BudgetExceededError):
        to_code(big)


def test_generator_text_roundtrip():
    ham = seed_family("hamming_7_4")
    text = write_generator_text(ham)
    assert text.splitlines()[0] == "2 7 4"
    again = read_generator_text(text)
    assert again.gen == ham.gen
    with pytest.raises(ContractViolationError):
        read_generator_text("2 3 2\n1 0 1\n")


# --- differential tests against the per-entry codeword walk -----------------
#
# The references below are the codeword, minimum-weight, puncture, shorten
# and rank code as it was before every codeword came from the block engine:
# an odometer over messages with one field operation per entry, a Gray-code
# walk for binary minimum weight, and a row-swapping Gauss-Jordan.


def _reference_codewords(code):
    field = code.field
    for message in itertools.product(range(code.q), repeat=code.k):
        word = [0] * code.n
        for coeff, row in zip(message, code.gen.rows):
            if coeff:
                for idx, entry in enumerate(row):
                    if entry:
                        word[idx] = field.add(word[idx], field.mul(coeff, entry))
        yield bytes(word)


def _reference_row_to_int(row) -> int:
    value = 0
    for bit in row:
        value = (value << 1) | bit
    return value


def _reference_min_weight_binary(gen) -> int:
    rows = [_reference_row_to_int(row) for row in gen.rows]
    best = gen.n + 1
    word = 0
    gray_prev = 0
    for counter in range(1, 1 << gen.k):
        gray = counter ^ (counter >> 1)
        word ^= rows[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        w = word.bit_count()
        if w < best:
            best = w
    return best


def _reference_min_weight(code, words) -> int:
    """Minimum weight as it was: the Gray walk for binary codes, else a scan
    of the odometer's words past the zero message."""
    if code.q == 2:
        return _reference_min_weight_binary(code.gen)
    best = code.n + 1
    for word in words[1:]:
        w = sum(1 for s in word if s)
        if w < best:
            best = w
    return best


def _reference_puncture_rows(code, words, d):
    witness = next(word for word in words if sum(1 for s in word if s) == d)
    coord = next(i for i in range(code.n) if witness[i])
    return tuple(row[:coord] + row[coord + 1:] for row in code.gen.rows)


def _reference_shorten_rows(code):
    field = code.field
    rows = [list(r) for r in code.gen.rows]
    coord = next(c for c in range(code.n) if any(row[c] != 0 for row in rows))
    pivot = next(r for r in range(len(rows)) if rows[r][coord] != 0)
    inv = field.inv(rows[pivot][coord])
    rows[pivot] = [field.mul(inv, x) for x in rows[pivot]]
    for r in range(len(rows)):
        if r != pivot and rows[r][coord] != 0:
            factor = rows[r][coord]
            rows[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[r], rows[pivot])]
    return tuple(tuple(row[:coord] + row[coord + 1:]) for r, row in enumerate(rows) if r != pivot)


def _reference_rank(field, rows) -> int:
    rows = [row[:] for row in rows]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < n_cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# (q, largest k): every random case enumerates at most 4096 codewords
_FIELD_DIMS = {2: 9, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3, 16: 3, 256: 1}


def _random_generators(q, seed, count=12):
    """Seeded random k x n matrices over GF(q): most full rank, some with a
    zero row, a repeated row or a row that combines two others."""
    field = GF(q)
    rng = random.Random(seed)
    out = []
    for index in range(count):
        k = rng.randint(1, _FIELD_DIMS[q])
        n = rng.randint(k, 9)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if k >= 2 and index % 4 == 3:
            kind = index // 4 % 3
            a, b = rng.randrange(1, q), rng.randrange(q)
            if kind == 0:
                rows[-1] = [0] * n
            elif kind == 1:
                rows[-1] = rows[0][:]
            else:
                rows[-1] = [field.add(field.mul(a, x), field.mul(b, y))
                            for x, y in zip(rows[0], rows[1 % (k - 1)])]
        out.append(rows)
    return out


_DIFF_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 256)


@pytest.mark.parametrize("block_words", [None, 1, 8])
@pytest.mark.parametrize("q", _DIFF_FIELDS)
def test_codeword_engine_matches_the_odometer(monkeypatch, q, block_words):
    if block_words is not None:
        monkeypatch.setattr(linear, "_BLOCK_WORDS", block_words)
    field = GF(q)
    cases = _random_generators(q, seed=1000 + q)
    if q == 256 and block_words is None:
        cases.append([[7, 0, 255], [1, 1, 2]])  # 65,536 words: 256 default blocks
    full = 0
    for rows in cases:
        expected_rank = _reference_rank(field, rows)
        assert linear._rank(field, rows) == expected_rank
        if expected_rank < len(rows):
            with pytest.raises(ContractViolationError):
                GeneratorMatrix(field, tuple(map(tuple, rows)))
            continue
        full += 1
        code = LinearCode(GeneratorMatrix(field, tuple(map(tuple, rows))))
        words = list(_reference_codewords(code))
        assert list(code.codewords()) == words
        d = _reference_min_weight(code, words)
        assert min_weight(code) == d
        assert to_code(code).words == tuple(sorted(words))
        if code.n > 1 and d >= 2:
            assert puncture(code).gen.rows == _reference_puncture_rows(code, words, d)
        if code.n > 1 and code.k > 1:
            assert shorten(code).gen.rows == _reference_shorten_rows(code)
    assert full >= 6


@pytest.mark.parametrize("q", _DIFF_FIELDS)
def test_rank_matches_reference_on_singular_matrices(q):
    field = GF(q)
    rng = random.Random(q)
    for _ in range(40):
        k, n = rng.randint(1, 5), rng.randint(1, 6)
        # few distinct entries make dependent rows and zero columns common
        values = rng.sample(range(q), min(q, 2))
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(k)]
        assert linear._rank(field, rows) == _reference_rank(field, rows)


def test_engine_keeps_the_budget_caps(monkeypatch):
    code = seed_family("parity", n=22, q=2)  # 2^21 words, distance 2
    words = code.codewords()  # a generator: the cap applies on the first word
    with pytest.raises(BudgetExceededError):
        next(words)
    monkeypatch.setattr(linear, "DEFAULT_ENUM_CAP", 1 << 20)
    with pytest.raises(BudgetExceededError):
        min_weight(code)
    with pytest.raises(BudgetExceededError):
        puncture(code)  # its one pass over the codewords keeps the enumeration cap


def test_puncture_past_the_word_cap_makes_one_pass():
    # 2^21 words: above the word cap of codewords(), within the enumeration cap
    punctured = puncture(seed_family("parity", n=22, q=2))
    assert (punctured.n, punctured.k) == (21, 21)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_puncture_drops_the_first_minimum_weight_words_coordinate_on_seed_families(q):
    seeds = [seed_family("repetition", n=n, q=q) for n in range(2, 7)]
    seeds += [seed_family("parity", n=n, q=q) for n in range(3, 7)]
    if q == 2:
        seeds += [seed_family("hamming_7_4"), seed_family("extended_hamming_8_4")]
    for code in seeds:
        words = list(_reference_codewords(code))
        d = _reference_min_weight(code, words)
        assert puncture(code).gen.rows == _reference_puncture_rows(code, words, d), code
