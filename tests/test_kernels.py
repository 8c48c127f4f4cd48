"""Distance kernels against naive pure-Python references, including witness
tie-breaking and the field widths and row blocks of the bit-packed scan."""

import itertools
import random

import numpy as np
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


def _naive_greedy(words, d):
    kept = []
    for word in words:
        if all(_distance(word, other) >= d for other in kept):
            kept.append(word)
    return kept


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("width, q", [(1, 2), (2, 4), (4, 16), (8, 256)])
def test_packing_boundary(width, q, extra):
    # rows of 64 / width symbols fill one uint64 and are squeezed to it; one
    # symbol more takes a second word
    n = 64 // width + extra
    m = 3 * kernels._SMALL
    rng = random.Random(q * 2 + extra)
    words = [bytes(rng.randrange(q) for _ in range(n)) for _ in range(m)]
    words[0] = bytes([q - 1]) * n  # the top symbol sets min_pairwise's width
    # pairs at distance 1 and 2 that differ in the last symbol, across the word boundary
    words[7] = words[3][:-1] + bytes([(words[3][-1] + 1) % q])
    words[9] = words[4][:-2] + bytes([(words[4][-2] + 1) % q, (words[4][-1] + 1) % q])
    arr = np.frombuffer(b"".join(words), dtype=np.uint8).reshape(m, n)
    rows, got_width = kernels.pack_rows(arr, q - 1)
    assert got_width == width and rows.shape == ((m,) if extra == 0 else (m, 2))
    dist = [[_distance(a, b) for b in words] for a in words]
    dists = (1, 2, n // 2, n)
    for d, (kept, low) in zip(dists, kernels.greedy_sieve([arr], q, dists)):
        assert kernels.far_bitsets(rows, rows, width, d) == [
            sum(1 << j for j in range(m) if dist[i][j] >= d) for i in range(m)], d
        assert [bytes(row) for row in kept] == _naive_greedy(words, d), d
        assert low == _naive_min_pairwise(_naive_greedy(words, d))[0]  # n + 1 below two words
    assert kernels.min_pairwise(b"".join(words), m, n) == _naive_min_pairwise(words)


@pytest.mark.parametrize("q, n", [(2, 7), (3, 5), (4, 4), (2, 12)])
def test_greedy_sieve_settles_every_distance_across_blocks(monkeypatch, q, n):
    # blocks of 16 rows: each d sieves a block against the rows it kept in
    # earlier blocks, and its least distance spans blocks too
    monkeypatch.setattr(kernels, "_SIEVE_ROWS", 16)
    rng = random.Random(q * n)
    words = rng.sample([bytes(w) for w in itertools.product(range(q), repeat=n)], min(q ** n, 300))
    arr = np.frombuffer(b"".join(words), dtype=np.uint8).reshape(len(words), n)
    chunks = [arr[:5], arr[5:40], arr[40:]]
    dists = range(1, n + 1)
    for limit in (None, 1, 3, 50):
        got = kernels.greedy_sieve(chunks, q, dists, limit)
        for d, (kept, low) in zip(dists, got):
            expected = _naive_greedy(words, d)[:limit]
            assert [bytes(row) for row in kept] == expected, (d, limit)
            assert low == _naive_min_pairwise(expected)[0], (d, limit)
            single, = kernels.greedy_sieve(chunks, q, (d,), limit)
            assert single[1] == low and single[0].tobytes() == kept.tobytes(), (d, limit)


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        kernels.hamming(b"\x00", b"\x00\x01")
