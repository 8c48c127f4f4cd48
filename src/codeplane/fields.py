"""Prime-power finite fields up to order 256 via exp/log tables.

Elements of GF(p^e) are integers in [0, q) read as base-p digit vectors
(polynomial coefficients, least significant digit first). For e > 1 the
modulus is the lexicographically least monic primitive polynomial of degree
e over GF(p); for e = 1 the generator is the least primitive root mod p.
Both rules are deterministic, so tables are reproducible across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ContractViolationError


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ContractViolationError("field order must be >= 2")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            rest = q
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1:
                raise ContractViolationError(f"{q} is not a prime power")
            return p, e
    raise ContractViolationError(f"{q} is not a prime power")


def _digits(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return out


def _from_digits(digits, p: int) -> int:
    value = 0
    for coeff in reversed(digits):
        value = value * p + coeff
    return value


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient vectors over GF(p) and reduce by the monic modulus."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, e - 1, -1):
        coeff = prod[top]
        if coeff:
            prod[top] = 0
            for k in range(e):
                prod[top - e + k] = (prod[top - e + k] - coeff * modulus[k]) % p
    return prod[:e]


def _x_has_full_order(modulus, p: int, q: int) -> bool:
    """True iff x generates all q-1 nonzero residues mod the monic modulus.

    Full order implies every nonzero residue is a power of x, hence a unit,
    hence the quotient ring is a field; no separate irreducibility test is
    needed.
    """
    e = len(modulus) - 1
    one = [1] + [0] * (e - 1)
    x = [0, 1] + [0] * (e - 2) if e > 1 else None
    cur = x
    for step in range(1, q - 1):
        if cur == one:
            return False
        cur = _poly_mul_mod(cur, x, modulus, p)
    return cur == one


def _least_primitive_polynomial(p: int, e: int, q: int) -> tuple[int, ...]:
    """Lexicographically least monic primitive polynomial of degree e over GF(p).

    Coefficients ascending, constant term first; the leading 1 is included.
    Lexicographic order is over the low-degree coefficient vector.
    """
    for tail in range(p ** e):
        coeffs = _digits(tail, p, e)
        if coeffs[0] == 0:
            continue  # constant term 0 means x divides the polynomial
        modulus = coeffs + [1]
        if _x_has_full_order(modulus, p, q):
            return tuple(modulus)
    raise ContractViolationError(f"no primitive polynomial found for GF({p}^{e})")


def _least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = set()
    rest = p - 1
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            factors.add(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        factors.add(rest)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise ContractViolationError(f"no primitive root mod {p}")


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic tables for GF(q), q = p^e <= 256."""

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]  # ascending coefficients incl. leading 1; (p,) means e == 1
    exp: tuple[int, ...] = field(repr=False)  # exp[i] = g**i, length q-1
    log: tuple[int, ...] = field(repr=False)  # log[exp[i]] = i; log[0] unused

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da = _digits(a, self.p, self.e)
        db = _digits(b, self.p, self.e)
        return _from_digits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return _from_digits([(-x) % self.p for x in _digits(a, self.p, self.e)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ContractViolationError("zero has no multiplicative inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]


@lru_cache(maxsize=None)
def GF(q: int) -> FieldSpec:
    """Field of order q (prime power, q <= 256), built deterministically."""
    if q > 256:
        raise ContractViolationError("fields supported up to order 256")
    p, e = _factor_prime_power(q)
    if e == 1:
        g = _least_primitive_root(p)
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = exp[i - 1] * g % p
        modulus = (p,)
    else:
        modulus = _least_primitive_polynomial(p, e, q)
        x = [0, 1] + [0] * (e - 2)
        cur = [1] + [0] * (e - 1)
        exp = []
        for _ in range(q - 1):
            exp.append(_from_digits(cur, p))
            cur = _poly_mul_mod(cur, x, list(modulus), p)
    log = [0] * q
    for i, value in enumerate(exp):
        log[value] = i
    return FieldSpec(p=p, e=e, q=q, modulus=modulus, exp=tuple(exp), log=tuple(log))
