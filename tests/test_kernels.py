"""Distance kernels against naive pure-Python references, including witness
tie-breaking and the field widths and row blocks of the bit-packed scan."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from codeplane import kernels

# one alphabet on each side of every field-width boundary (1, 2, 4, 8 bits)
ALPHABETS = [2, 3, 4, 5, 16, 17, 255, 256]


def _distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def _naive_min_pairwise(words):
    best = (len(words[0]) + 1, -1, -1)
    for i in range(len(words) - 1):
        for j in range(i + 1, len(words)):
            d = _distance(words[i], words[j])
            if d < best[0]:
                best = (d, i, j)
    return best


@st.composite
def word_sets(draw, max_m=40):
    q = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 80 if q == 2 else 40))
    word = st.binary(min_size=n, max_size=n).map(lambda b: bytes(x % q for x in b))
    if draw(st.booleans()):
        # distinct words, as in a code; short words force distance ties
        m = draw(st.integers(2, min(max_m, q ** n // 2 + 1)))
        return q, n, draw(st.lists(word, min_size=m, max_size=m, unique=True))
    # repeats drawn from a small pool force ties at distance 0
    m = draw(st.integers(2, max_m))
    pool = draw(st.lists(word, min_size=1, max_size=m))
    return q, n, draw(st.lists(st.sampled_from(pool) | word, min_size=m, max_size=m))


@given(data=word_sets())
@settings(max_examples=300, deadline=None)
def test_min_pairwise_matches_naive(data):
    _q, n, words = data
    assert kernels.min_pairwise(b"".join(words), len(words), n) == _naive_min_pairwise(words)


@given(data=word_sets(max_m=12), cand_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_set_queries_match_naive(data, cand_seed):
    q, n, words = data
    rng = random.Random(cand_seed)
    cand = bytes(rng.randrange(q) for _ in range(n))
    buf = b"".join(words)
    naive = min(_distance(word, cand) for word in words)
    for d in (0, 1, n // 2, n, n + 1):
        assert kernels.all_at_least(buf, len(words), n, cand, d) == (naive >= d)
    assert kernels.hamming(words[0], cand) == _distance(words[0], cand)


@pytest.mark.parametrize("q, n, m", [(2, 70, 700), (4, 32, 600), (256, 9, 520)])
def test_min_pairwise_across_row_blocks(q, n, m):
    assert m * (m - 1) // 2 >= 2 * kernels._BLOCK_PAIRS
    rng = random.Random(q * n * m)
    words = [bytes(rng.randrange(q) for _ in range(n)) for _ in range(m)]
    # three pairs at distance 1: one in a middle row block, two tied in the last
    for i, j in ((m // 2, m // 2 + 7), (m - 40, m - 5), (m - 3, m - 2)):
        words[j] = words[i][:-1] + bytes([(words[i][-1] + 1) % q])
    expected = _naive_min_pairwise(words)
    assert expected == (1, m // 2, m // 2 + 7)
    assert kernels.min_pairwise(b"".join(words), m, n) == expected


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        kernels.hamming(b"\x00", b"\x00\x01")
