"""Independent references the output checks compare against.

Nothing here imports ``codeplane``: literature values are typed in by hand,
distances are recomputed by brute force (in pure Python, or with numpy bit
planes for the large random codes), the entropy is evaluated with
``math.log`` floats, and polylines with exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A_q(n, d), the largest size of a q-ary code of length n and minimum
# distance d; row n lists d = 1 .. n (MacWilliams-Sloane table; Brouwer's
# tables for q = 3).
A_BINARY = {
    3: (8, 4, 2),
    4: (16, 8, 2, 2),
    5: (32, 16, 4, 2, 2),
    6: (64, 32, 8, 4, 2, 2),
    7: (128, 64, 16, 8, 2, 2, 2),
    8: (256, 128, 20, 16, 4, 2, 2, 2),
    9: (512, 256, 40, 20, 6, 4, 2, 2, 2),
    10: (1024, 512, 72, 40, 12, 6, 2, 2, 2, 2),
}
A_TERNARY = {
    3: (27, 9, 3),
    4: (81, 27, 9, 3),
    5: (243, 81, 18, 6, 3),
    6: (729, 243, 38, 18, 4, 3),
}

# best minimum distance of a linear [n, k] code over GF(q), keyed (q, n, k):
# binary values meet the Griesmer bound, the q > 2 ones are MDS or the
# Griesmer bound as well.
BEST_LINEAR = {
    (2, 5, 2): 3, (2, 6, 2): 4, (2, 6, 3): 3, (2, 7, 2): 4, (2, 7, 3): 4, (2, 7, 4): 3,
    (2, 8, 4): 4, (3, 4, 2): 3, (3, 5, 2): 3, (3, 6, 2): 4, (4, 4, 2): 3, (4, 5, 2): 4,
    (5, 4, 2): 3, (5, 5, 2): 4,
}


def a_value(q: int, n: int, d: int):
    """A_q(n, d) when tabulated or one of the trivial cases d in {1, 2, n}, else None."""
    if d == 1:
        return q ** n
    if d == 2:
        return q ** (n - 1)  # the parity-check code is perfect for d = 2
    if d == n:
        return q
    row = (A_BINARY if q == 2 else A_TERNARY if q == 3 else {}).get(n)
    return row[d - 1] if row and 1 <= d <= n else None


SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"  # base-36 symbol characters


def fmt(x: Fraction) -> str:
    """Lowest-terms "p/q", or "p" for integers."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def floor_log(m: int, q: int) -> int:
    t = 0
    while q ** (t + 1) <= m:
        t += 1
    return t


# --- brute-force distances ---------------------------------------------------


def min_distance(words: list[str]) -> int:
    """Minimum pairwise Hamming distance of equal-length symbol strings.

    Pairs are compared through per-symbol bit masks: word w becomes one
    integer per symbol value, and the positions where two words agree are
    the popcount of the AND summed over symbol values.
    """
    if len(words) < 2:
        return 0
    n = len(words[0])
    alphabet = sorted(set("".join(words)))
    masks = []
    for w in words:
        masks.append(tuple(int("".join("1" if ch == s else "0" for ch in w), 2) for s in alphabet))
    best = n
    for i in range(len(masks) - 1):
        a = masks[i]
        for j in range(i + 1, len(masks)):
            b = masks[j]
            agree = sum((x & y).bit_count() for x, y in zip(a, b))
            if n - agree < best:
                best = n - agree
    return best


def min_distance_planes(words: list[str]) -> int:
    """``min_distance`` for large codes: one packed bit plane per symbol value,
    agreements counted with numpy popcounts, one word against all later ones."""
    import numpy as np

    m, n = len(words), len(words[0])
    lut = np.zeros(256, dtype=np.uint8)
    lut[np.frombuffer(SYMBOLS.encode(), dtype=np.uint8)] = np.arange(len(SYMBOLS))
    arr = lut[np.frombuffer("".join(words).encode(), dtype=np.uint8)].reshape(m, n)
    planes = [np.packbits(arr == s, axis=1) for s in np.unique(arr)]
    best = n
    for i in range(m - 1):
        agree = sum(np.bitwise_count(p[i + 1:] & p[i]).sum(axis=1, dtype=np.int64) for p in planes)
        best = min(best, n - int(agree.max()))
    return best


def _gf_mul(q: int, a: int, b: int) -> int:
    if q in (2, 3, 5, 7):
        return a * b % q
    if q == 4:  # GF(2)[x] / (x^2 + x + 1), elements as 2-bit coefficient vectors
        prod = 0
        for bit in range(2):
            if b >> bit & 1:
                prod ^= a << bit
        if prod & 0b100:
            prod ^= 0b111
        return prod
    raise ValueError(f"no reference field arithmetic for q={q}")


def _gf_add(q: int, a: int, b: int) -> int:
    return a ^ b if q == 4 else (a + b) % q


def linear_min_weight(q: int, rows: list[list[int]]) -> int:
    """Least weight over all nonzero messages (0 when the rows are dependent)."""
    k, n = len(rows), len(rows[0])
    best = n
    for index in range(1, q ** k):
        word = [0] * n
        for r in range(k):
            coeff = index // q ** r % q
            if coeff:
                word = [_gf_add(q, x, _gf_mul(q, coeff, y)) for x, y in zip(word, rows[r])]
        best = min(best, sum(1 for s in word if s))
    return best


# --- float entropy and the named bound curves --------------------------------


def entropy(q: int, x: float) -> float:
    if x <= 0:
        return 0.0
    value = x * math.log(q - 1, q) if q > 2 else 0.0
    value -= x * math.log(x, q)
    if x < 1:
        value -= (1 - x) * math.log(1 - x, q)
    return value


def curve_value(name: str, q: int, delta: float) -> float:
    """Float value of a named bound curve at delta in [0, 1]."""
    edge = (q - 1) / q
    if name == "vg":
        return 0.0 if delta >= edge else (1 - entropy(q, delta)) / 2
    if name == "gv_lower":
        return 0.0 if delta >= edge else 1 - entropy(q, delta)
    if name == "hamming":
        return 1 - entropy(q, delta / 2)
    raise ValueError(f"no reference for curve {name!r}")


def exact_endpoints(name: str, q: int) -> dict:
    """Curve values the program must print exactly, keyed by delta."""
    edge = Fraction(q - 1, q)
    return {
        "vg": {Fraction(0): 0.5, edge: 0.0},
        "gv_lower": {Fraction(0): 1.0, edge: 0.0},
        "hamming": {Fraction(0): 1.0},
    }[name]


# --- exact polylines ------------------------------------------------------------


def parse_polyline(spec: str) -> list[tuple[Fraction, Fraction]]:
    """(delta, R) vertices of a "synthetic:d,R;d,R;..." curve spec."""
    body = spec.split(":", 1)[1]
    if body == "diag":
        return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    return [tuple(Fraction(t) for t in chunk.split(",")) for chunk in body.split(";")]


def polyline_value(vertices, delta: Fraction) -> Fraction:
    for (d0, r0), (d1, r1) in zip(vertices, vertices[1:]):
        if d0 <= delta <= d1:
            return r0 + (delta - d0) / (d1 - d0) * (r1 - r0)
    raise ValueError(f"delta {delta} outside the polyline span")
