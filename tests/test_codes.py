import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codeplane.codes import (
    Code,
    CodeParams,
    code_point,
    csv_point_row,
    decode_triple,
    encode_triple,
    floor_log_q,
    hamming_distance,
    min_distance,
    params,
    rate_real,
    read_code_text,
    word_from_text,
    word_to_text,
    write_code_text,
)
from codeplane.errors import ContractViolationError
from codeplane.geometry import RatPoint


def w(text, q=2):
    return word_from_text(text, q)


def test_hamming_examples():
    assert hamming_distance(w("000"), w("000")) == 0
    assert hamming_distance(w("000"), w("111")) == 3
    assert hamming_distance(w("0102", 3), w("0112", 3)) == 1
    with pytest.raises(ContractViolationError):
        hamming_distance(w("00"), w("000"))


@given(st.integers(2, 5), st.integers(1, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_hamming_metric_axioms(q, n, data):
    sym = st.integers(0, q - 1)
    word = st.lists(sym, min_size=n, max_size=n).map(bytes)
    a, b, c = data.draw(word), data.draw(word), data.draw(word)
    assert hamming_distance(a, b) >= 0
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_min_distance_examples():
    d, witness = min_distance(Code.from_words(2, [w("000"), w("111")]))
    assert d == 3 and witness == (w("000"), w("111"))
    d, witness = min_distance(Code.from_words(2, [w("0000")]))
    assert d == 0 and witness is None
    full = Code.from_words(2, [w("00"), w("01"), w("10"), w("11")])
    d, witness = min_distance(full)
    assert d == 1 and hamming_distance(*witness) == 1


def test_params_and_degenerate_invariant():
    p = params(Code.from_words(2, [w("000"), w("111")]))
    assert (p.q, p.n, p.m, p.d) == (2, 3, 2, 3)
    p = params(Code.from_words(2, [w("0000")]))
    assert p.triple() == (4, 1, 0)
    with pytest.raises(ContractViolationError):
        CodeParams(q=2, n=3, m=2, d=0)
    with pytest.raises(ContractViolationError):
        CodeParams(q=2, n=3, m=1, d=1)


def test_floor_log_q_examples():
    assert floor_log_q(16, 2) == 4
    assert floor_log_q(20, 2) == 4
    assert floor_log_q(1, 5) == 0
    assert floor_log_q(3**7, 3) == 7
    assert floor_log_q(3**7 - 1, 3) == 6


def test_code_point_examples():
    assert code_point(CodeParams(q=2, n=7, m=16, d=3)) == RatPoint.of("4/7", "3/7")
    assert code_point(CodeParams(q=2, n=10, m=20, d=3)) == RatPoint.of("2/5", "3/10")
    assert code_point(CodeParams(q=2, n=4, m=1, d=0)) == RatPoint.of(0, 0)


@given(st.integers(2, 4), st.integers(1, 10), st.data())
@settings(max_examples=120, deadline=None)
def test_code_point_in_unit_square_and_rate_gap(q, n, data):
    m = data.draw(st.integers(1, q ** n))
    d = 0 if m == 1 else data.draw(st.integers(1, n))
    p = CodeParams(q=q, n=n, m=m, d=d)
    point = code_point(p)
    assert point.in_unit_square()
    # the exact floor rate and the real rate differ by less than 1/n
    iv = rate_real(p, 30)
    assert iv.hi - point.r <= Fraction(1, n)
    assert iv.lo >= point.r


def test_rate_real_examples():
    iv = rate_real(CodeParams(q=2, n=7, m=16, d=3), 30)
    assert iv.is_point and iv.lo == Fraction(4, 7)
    iv = rate_real(CodeParams(q=2, n=10, m=20, d=3), 40)
    oracle = math.log2(20) / 10  # 0.43219280948873...
    assert float(iv.lo) - 1e-9 <= oracle <= float(iv.hi) + 1e-9
    assert iv.width <= Fraction(1, 2**40)
    iv = rate_real(CodeParams(q=3, n=5, m=1, d=0), 20)
    assert iv.is_point and iv.lo == 0


def test_triple_numbering_roundtrip_and_order():
    rng = random.Random(20250808)
    for _ in range(10_000):
        q = rng.choice([2, 3, 5])
        n = rng.randrange(1, 8)
        d = rng.randrange(1, n + 1)
        m = rng.randrange(1, q ** n + 1)
        t = (n, m, d)
        assert decode_triple(encode_triple(t, q), q) == t
    seen = set()
    for idx in range(200):
        t = decode_triple(idx, 2)
        assert t not in seen
        seen.add(t)
        n, m, d = t
        assert 1 <= d <= n and 1 <= m <= 2 ** n
    assert len({decode_triple(i, 2) for i in (0, 1, 2)}) == 3


def test_encode_triple_contract():
    with pytest.raises(ContractViolationError):
        encode_triple((2, 5, 0), 2)
    with pytest.raises(ContractViolationError):
        encode_triple((2, 9, 1), 2)  # m > q^n


def test_encode_is_injective_on_distinct_triples():
    rng = random.Random(7)
    triples = set()
    while len(triples) < 10_000:
        n = rng.randrange(1, 16)
        triples.add((n, rng.randrange(1, 2 ** n + 1), rng.randrange(1, n + 1)))
    codes = {encode_triple(t, 2) for t in triples}
    assert len(codes) == len(triples)


def test_code_file_roundtrip():
    code = Code.from_words(3, [w("0102", 3), w("1110", 3), w("2221", 3)])
    text = write_code_text(code)
    assert text.splitlines()[0] == "3 4 3"
    assert read_code_text(text) == code
    with pytest.raises(ContractViolationError):
        read_code_text("2 3 2\n000\n")  # body shorter than header


def test_word_text_roundtrip_and_range():
    assert word_to_text(w("00a1", 36)) == "00a1"
    with pytest.raises(ContractViolationError):
        word_from_text("02", 2)


def test_csv_point_row_serializes_exact_rationals():
    row = csv_point_row(CodeParams(q=2, n=7, m=16, d=3))
    assert row[:5] == ["7", "16", "3", "4/7", "3/7"]


@pytest.mark.parametrize("q, n, words", [
    (2, 3, ()),                                   # empty code
    (2, 3, (b"\x00\x00\x00", b"\x00\x01")),       # mixed lengths
    (2, 2, (b"\x00\x00", b"\x01\x01\x01")),
    (2, 3, (b"\x00\x00", b"\x01\x01")),           # lengths other than n
    (2, 0, (b"",)),                               # zero-length word
    (2, 2, (b"\x00\x00", b"\x00\x02")),           # symbol q
    (3, 2, (b"\x00\x03", b"\x01\x00")),
    (255, 2, (b"\x00\x00", b"\x00\xff")),         # symbol q at q = 255
    (2, 2, (b"\x00\x01", b"\x00\x01")),           # duplicate word
    (2, 2, (b"\x01\x00", b"\x00\x01")),           # unsorted words
    (1, 1, (b"\x00",)),                           # alphabets outside [2, 256]
    (257, 1, (b"\x00",)),
])
def test_code_rejects_bad_words(q, n, words):
    with pytest.raises(ContractViolationError):
        Code(q=q, n=n, words=words)


def test_code_accepts_every_symbol_of_its_alphabet():
    assert Code(q=256, n=2, words=(b"\x00\xff", b"\xff\x00", b"\xff\xff")).m == 3
    assert Code(q=2, n=1, words=(b"\x00",)).m == 1
    with pytest.raises(ContractViolationError):
        Code.from_words(2, [])
