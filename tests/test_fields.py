import itertools
import random

import numpy as np
import pytest

from codeplane.errors import ContractViolationError
from codeplane.fields import GF


def _poly_mul_reduce_oracle(a_digits, b_digits, modulus, p):
    """Independent schoolbook polynomial multiply-and-reduce over GF(p)."""
    prod = [0] * (len(a_digits) + len(b_digits) - 1)
    for i, ai in enumerate(a_digits):
        for j, bj in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    e = len(modulus) - 1
    while len(prod) > e:
        top = prod.pop()
        if top:
            for k in range(e):
                idx = len(prod) - e + k
                prod[idx] = (prod[idx] - top * modulus[k]) % p
    while len(prod) < e:
        prod.append(0)
    return prod


def _digits(value, p, e):
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return out


def _from_digits(digits, p):
    value = 0
    for c in reversed(digits):
        value = value * p + c
    return value


def test_gf2_addition():
    f = GF(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf3_inverse():
    assert GF(3).inv(2) == 2  # 2 * 2 = 4 = 1 mod 3


def test_gf4_x_squared_via_polynomial_oracle():
    f = GF(4)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1
    x = 2  # digits [0, 1]
    expected = _from_digits(
        _poly_mul_reduce_oracle(_digits(x, 2, 2), _digits(x, 2, 2), list(f.modulus), 2), 2
    )
    assert f.mul(x, x) == expected == 3  # x + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive_small(q):
    f = GF(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    if q <= 9:
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256])
def test_field_axioms_sampled_large(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # every nonzero element is a power of the generator
    assert sorted(f.exp) == sorted(range(1, q))


def test_mul_via_oracle_for_prime_power():
    f = GF(8)
    rng = random.Random(8)
    for _ in range(100):
        a, b = rng.randrange(8), rng.randrange(8)
        expected = _from_digits(
            _poly_mul_reduce_oracle(_digits(a, 2, 3), _digits(b, 2, 3), list(f.modulus), 2), 2
        )
        assert f.mul(a, b) == expected


def test_rejects_non_prime_power_and_zero_inverse():
    with pytest.raises(ContractViolationError):
        GF(6)
    with pytest.raises(ContractViolationError):
        GF(2).inv(0)
    with pytest.raises(ContractViolationError):
        GF(257)


def test_tables_are_deterministic():
    a = GF(16)
    GF.cache_clear()
    b = GF(16)
    assert a.modulus == b.modulus and a.exp == b.exp


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 256])
def test_tables_match_add_and_mul(q):
    field = GF(q)
    add, mul = field.tables
    assert add.shape == mul.shape == (q, q) and add.dtype == mul.dtype == np.uint8
    assert add.tolist() == [[field.add(a, b) for b in range(q)] for a in range(q)]
    assert mul.tolist() == [[field.mul(a, b) for b in range(q)] for a in range(q)]
    assert field.tables is GF(q).tables  # built once per field
    assert not add.flags.writeable and not mul.flags.writeable
