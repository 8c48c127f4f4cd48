"""Hamming-distance kernels over packed word buffers (numpy).

Words are stored one symbol per byte; a word set is the concatenation of m
length-n words into one read-only buffer. All functions are pure.

``min_pairwise`` repacks a large buffer into bit fields: each symbol gets a
1, 2, 4 or 8-bit field (the width of the largest symbol present), rows are
XORed as uint64 words, every nonzero field is OR-folded down to its low bit
and the surviving bits are counted with ``np.bitwise_count``.
``all_at_least`` and ``hamming`` serve many tiny calls and stay on plain
byte compares, where repacking would cost more than it saves.
"""

from __future__ import annotations

import numpy as np

#: reported by the benchmark's run context
BACKEND = "python"

# below this many words, plain-bytes loops beat numpy dispatch overhead
_SMALL = 8

# pairs compared per numpy pass in min_pairwise
_BLOCK_PAIRS = 1 << 16

# field width -> (shifts OR-folding a field onto its low bit, low-bit mask)
_FOLDS = {
    2: ((1,), np.uint64(0x5555555555555555)),
    4: ((1, 2), np.uint64(0x1111111111111111)),
    8: ((1, 2, 4), np.uint64(0x0101010101010101)),
}


def _as_matrix(buf, m, n):
    return np.frombuffer(buf, dtype=np.uint8, count=m * n).reshape(m, n)


def hamming(a, b):
    if len(a) != len(b):
        raise ValueError("hamming distance requires equal-length words")
    if len(a) <= 64:
        return sum(x != y for x, y in zip(a, b))
    arr_a = np.frombuffer(a, dtype=np.uint8)
    arr_b = np.frombuffer(b, dtype=np.uint8)
    return int((arr_a != arr_b).sum())


def _pack_rows(arr):
    """Rows of ``arr`` as uint64 bit fields; returns (rows, field width)."""
    top = int(arr.max())
    width = 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8
    per_byte = 8 // width
    m, n = arr.shape
    per_word = 64 // width
    padded = np.zeros((m, -(-n // per_word) * per_word), dtype=np.uint8)
    padded[:, :n] = arr
    # fields of a byte hold disjoint bits, so their weighted sum is their OR
    weights = np.array([1 << s for s in range(0, 8, width)], dtype=np.uint8)
    return (padded.reshape(m, -1, per_byte) @ weights).view(np.uint64), width


def min_pairwise(buf, m, n):
    """Minimum pairwise distance over m words; returns (d, i, j).

    (i, j) is the first attaining pair in row-major scan order (i < j).
    """
    if m < 2:
        raise ValueError("need at least two words")
    if m <= _SMALL:
        best, bi, bj = n + 1, -1, -1
        words = [buf[k * n:(k + 1) * n] for k in range(m)]
        for i in range(m - 1):
            wi = words[i]
            for j in range(i + 1, m):
                d = sum(x != y for x, y in zip(wi, words[j]))
                if d < best:
                    best, bi, bj = d, i, j
        return best, bi, bj
    rows, width = _pack_rows(_as_matrix(buf, m, n))
    if rows.shape[1] == 1:
        rows = rows[:, 0]  # one uint64 per row: count it directly, no row sum
    best, bi, bj = n + 1, -1, -1
    i0 = 0
    while i0 < m - 1:
        # rows i0..i1-1 against rows i0+1..m-1; pairs with j <= i are masked
        span = m - i0 - 1
        i1 = min(m - 1, i0 + max(1, _BLOCK_PAIRS // span))
        diff = rows[i0:i1, None] ^ rows[None, i0 + 1:]
        if width > 1:
            shifts, low_bits = _FOLDS[width]
            for s in shifts:
                diff |= diff >> np.uint64(s)
            diff &= low_bits
        dists = np.bitwise_count(diff)
        if dists.ndim == 3:
            dists = dists.sum(axis=2, dtype=np.int32)
        lower = np.arange(i1 - i0)
        dists[:, :i1 - i0][lower[:, None] > lower] = n + 1
        flat = int(dists.argmin())
        d = int(dists.flat[flat])
        if d < best:
            row, col = divmod(flat, span)
            best, bi, bj = d, i0 + row, i0 + 1 + col
        i0 = i1
    return best, bi, bj


def all_at_least(buf, m, n, cand, d):
    """True iff cand is at distance >= d from every packed word."""
    if d <= 0:
        return True
    if m <= _SMALL:
        for k in range(m):
            if sum(x != y for x, y in zip(buf[k * n:(k + 1) * n], cand)) < d:
                return False
        return True
    arr = _as_matrix(buf, m, n)
    cand_arr = np.frombuffer(cand, dtype=np.uint8)
    return bool(((arr != cand_arr).sum(axis=1) >= d).all())
