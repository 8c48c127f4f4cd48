"""Hamming-distance kernels over packed word buffers (numpy).

Words are stored one symbol per byte; a word set is the concatenation of m
length-n words into one read-only buffer. All functions are pure.

``min_pairwise`` repacks a large buffer into bit fields: each symbol gets a
1, 2, 4 or 8-bit field (the width of the largest symbol present), rows are
XORed as uint64 words, every nonzero field is OR-folded down to its low bit
and the surviving bits are counted with ``np.bitwise_count``.
``greedy_sieve`` runs a greedy scan on the same packed rows, a block of
scanned words at a time. ``hamming`` serves many tiny calls and stays on
plain byte compares, where repacking would cost more than it saves.
``all_at_least`` (one candidate against a word set) has no library caller
since the greedy scan moved to ``greedy_sieve``; it stays as an entry point
that the benchmark's tracer binds.
"""

from __future__ import annotations

import numpy as np

#: reported by the benchmark's run context
BACKEND = "python"

# below this many words, plain-bytes loops beat numpy dispatch overhead
_SMALL = 8

# pairs compared per numpy pass
_BLOCK_PAIRS = 1 << 16

# scanned rows per greedy_sieve block: bounds its closeness matrix
_SIEVE_ROWS = 1 << 10

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


def _field_width(top):
    """Bits per symbol field for symbols up to ``top``."""
    return 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8


def _pack_rows(arr, width):
    """Rows of ``arr`` as uint64 rows of ``width``-bit fields."""
    per_byte = 8 // width
    m, n = arr.shape
    per_word = 64 // width
    padded = np.zeros((m, -(-n // per_word) * per_word), dtype=np.uint8)
    padded[:, :n] = arr
    # fields of a byte hold disjoint bits, so their weighted sum is their OR
    weights = np.array([1 << s for s in range(0, 8, width)], dtype=np.uint8)
    return (padded.reshape(m, -1, per_byte) @ weights).view(np.uint64)


def _distances(x, y, width):
    """Distances between the packed rows x[i] and y[j], as a len(x) x len(y) array."""
    diff = x[:, None] ^ y[None, :]
    if width > 1:
        shifts, low_bits = _FOLDS[width]
        for s in shifts:
            diff |= diff >> np.uint64(s)
        diff &= low_bits
    dists = np.bitwise_count(diff)
    if dists.ndim == 3:
        dists = dists.sum(axis=2, dtype=np.int32)
    return dists


def _blocks(x, y, width):
    """Distances to y of row blocks of x, about _BLOCK_PAIRS pairs per block."""
    step = max(1, _BLOCK_PAIRS // max(1, len(y)))
    for lo in range(0, len(x), step):
        yield _distances(x[lo:lo + step], y, width)


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
    arr = _as_matrix(buf, m, n)
    width = _field_width(int(arr.max()))
    rows = _pack_rows(arr, width)
    if rows.shape[1] == 1:
        rows = rows[:, 0]  # one uint64 per row: count it directly, no row sum
    best, bi, bj = n + 1, -1, -1
    i0 = 0
    while i0 < m - 1:
        # rows i0..i1-1 against rows i0+1..m-1; pairs with j <= i are masked
        span = m - i0 - 1
        i1 = min(m - 1, i0 + max(1, _BLOCK_PAIRS // span))
        dists = _distances(rows[i0:i1], rows[i0 + 1:], width)
        lower = np.arange(i1 - i0)
        dists[:, :i1 - i0][lower[:, None] > lower] = n + 1
        flat = int(dists.argmin())
        d = int(dists.flat[flat])
        if d < best:
            row, col = divmod(flat, span)
            best, bi, bj = d, i0 + row, i0 + 1 + col
        i0 = i1
    return best, bi, bj


def greedy_sieve(chunks, q, d, limit=None):
    """Rows a greedy scan keeps, in scan order, as one uint8 matrix.

    ``chunks`` yields uint8 matrices of q-ary words, one word per row, in
    scan order. A row is kept iff it is at distance >= d from every row
    kept before it; the scan stops once ``limit`` rows are kept. Each block
    of scanned rows is first checked against the rows kept so far, then the
    survivors are settled among themselves from their closeness matrix, one
    step per kept row.
    """
    width = _field_width(q - 1)
    kept_rows, kept = [], None
    count = 0
    blocks = (chunk[lo:lo + _SIEVE_ROWS] for chunk in chunks
              for lo in range(0, len(chunk), _SIEVE_ROWS))
    for rows in blocks:
        packed = _pack_rows(rows, width)
        if kept is not None:
            far = np.concatenate([(dists >= d).all(axis=1)
                                  for dists in _blocks(packed, kept, width)])
            rows, packed = rows[far], packed[far]
        if not len(rows):
            continue
        apart = np.concatenate([dists >= d for dists in _blocks(packed, packed, width)])
        room = None if limit is None else limit - count
        picks = []
        alive = np.ones(len(rows), dtype=bool)
        i = 0
        while True:
            picks.append(i)
            if len(picks) == room:
                break
            alive &= apart[i]  # row i is at distance 0 < d from itself
            i = int(alive.argmax())
            if not alive[i]:
                break
        kept_rows.append(rows[picks])
        kept = packed[picks] if kept is None else np.concatenate([kept, packed[picks]])
        count += len(picks)
        if count == limit:
            break
    return np.concatenate(kept_rows)


def all_at_least(buf, m, n, cand, d):
    """True iff cand is at distance >= d from every packed word.

    No library code calls this; the benchmark's tracer binds it.
    """
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
