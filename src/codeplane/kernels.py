"""Hamming-distance kernels over packed word buffers (numpy).

Words are stored one symbol per byte; a word set is the concatenation of m
length-n words into one read-only buffer. All functions are pure.

``pack_rows`` repacks word rows into bit fields: each symbol gets a 1, 2,
4 or 8-bit field (the width of the largest symbol), a row one uint64 or
several. Rows are XORed as uint64 words, every nonzero field is OR-folded
down to its low bit and the surviving bits are counted with
``np.bitwise_count``; binary word values already are width-1 rows.
``min_pairwise`` and ``greedy_sieve`` (a greedy scan, a block of scanned
words at a time) work on packed rows, and ``far_bitsets`` gives the clique
search's distance->=d graph as one bitset per row; given a meter, the first
two check it before each block. ``hamming`` compares two words symbol by
symbol. ``all_at_least`` (one candidate against a word set, one numpy lane)
has no library caller; it stays as an entry point that the benchmark's
tracer binds.
"""

from __future__ import annotations

import numpy as np

#: reported by the benchmark's run context
BACKEND = "numpy"

# up to this many words, plain-bytes loops beat numpy dispatch overhead.
# min_pairwise on binary words of the ensemble's small lengths (n = 3-8, 24),
# best of 7, Python/numpy lane in us (numpy 2.4, CPython 3.11, 2-CPU VM):
# m = 5: 17-23 / 27-31 for n <= 8, 37 / 30 at n = 24; m = 6: level or numpy
# (16-35 / 19-31, 56 / 29 at n = 24); m = 8: numpy (31-69 / 19-31)
_SMALL = 5

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
    return sum(x != y for x, y in zip(a, b))


def pack_rows(arr, top):
    """Rows of the uint8 matrix ``arr``, whose symbols are at most ``top``, as
    rows of bit fields, with the field width.

    A row that fits one uint64 is that uint64 (a 1-D result, counted with no
    row sum); a longer row is a row of uint64 words.
    """
    width = 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8
    per_byte = 8 // width
    m, n = arr.shape
    per_word = 64 // width
    padded = np.zeros((m, -(-n // per_word) * per_word), dtype=np.uint8)
    padded[:, :n] = arr
    # fields of a byte hold disjoint bits, so their weighted sum is their OR
    weights = np.array([1 << s for s in range(0, 8, width)], dtype=np.uint8)
    rows = (padded.reshape(m, -1, per_byte) @ weights).view(np.uint64)
    return (rows[:, 0] if rows.shape[1] == 1 else rows), width


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


def _blocks(x, y, width, meter=None):
    """Distances to y of row blocks of x, about _BLOCK_PAIRS pairs per block."""
    step = max(1, _BLOCK_PAIRS // max(1, len(y)))
    for lo in range(0, len(x), step):
        if meter is not None:
            meter.check()
        yield _distances(x[lo:lo + step], y, width)


def min_pairwise(buf, m, n, meter=None):
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
    rows, width = pack_rows(arr, int(arr.max()))
    best, bi, bj = n + 1, -1, -1
    i0 = 0
    while i0 < m - 1:
        if meter is not None:
            meter.check()
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


def greedy_sieve(chunks, q, d, limit=None, meter=None):
    """Rows a greedy scan keeps, in scan order, as one uint8 matrix.

    ``chunks`` yields uint8 matrices of q-ary words, one word per row, in
    scan order. A row is kept iff it is at distance >= d from every row
    kept before it; the scan stops once ``limit`` rows are kept. Each block
    of scanned rows is first checked against the rows kept so far, then the
    survivors are settled among themselves from their closeness matrix, one
    step per kept row.
    """
    kept_rows, kept = [], None
    count = 0
    blocks = (chunk[lo:lo + _SIEVE_ROWS] for chunk in chunks
              for lo in range(0, len(chunk), _SIEVE_ROWS))
    for rows in blocks:
        packed, width = pack_rows(rows, q - 1)
        if kept is not None:
            far = np.concatenate([(dists >= d).all(axis=1)
                                  for dists in _blocks(packed, kept, width, meter)])
            rows, packed = rows[far], packed[far]
        if not len(rows):
            continue
        apart = np.concatenate([dists >= d for dists in _blocks(packed, packed, width, meter)])
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


def far_bitsets(x, y, width, d):
    """For each packed row x[i], the bitset (a Python int) of the packed rows
    y[j] at distance >= d from it: bit j is set iff y[j] is."""
    return [int.from_bytes(row.tobytes(), "little")
            for dists in _blocks(x, y, width)
            for row in np.packbits(dists >= d, axis=1, bitorder="little")]


def all_at_least(buf, m, n, cand, d):
    """True iff cand is at distance >= d from every packed word.

    No library code calls this; the benchmark's tracer binds it.
    """
    arr = _as_matrix(buf, m, n)
    cand_arr = np.frombuffer(cand, dtype=np.uint8)
    return bool(((arr != cand_arr).sum(axis=1) >= d).all())
