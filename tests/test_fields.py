import hashlib
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


# modulus and SHA-256 of the comma-joined exp table of every GF(p^e), e > 1,
# up to order 256, recorded when exp was built by polynomial multiplication
_EXTENSION_FIELDS = {
    4: ((1, 1, 1), "8a6ae15122001229edb8866f56e342af12ae8187203c3e3b33931743e7c0c48d"),
    8: ((1, 1, 0, 1), "532e44873f84897631e3bdf4bc87f13b6efc56c613f250dc56d5291817826247"),
    9: ((2, 1, 1), "bcc2ac665c778ead1173bcf046052610833f3582e06614ad03d9a57df6f011ec"),
    16: ((1, 1, 0, 0, 1), "2118825d6501751151897ace59a145fb8eb96b687bbef51fd02806658e21cf8f"),
    25: ((2, 1, 1), "eccf3f60d3c6c07cb01ef9ebe4423fc1697c1de2a7fc3ddf351c01f8a9d000ca"),
    27: ((1, 2, 0, 1), "62f2ccfa842b73c3cec2619c24647ea47f8c96fe4d36f11e954cd0b0ef80b4ad"),
    32: ((1, 0, 1, 0, 0, 1), "1aae48154ea2150d32405e80955df6cf977db73110fb90742bb6c3b591fc78c3"),
    49: ((3, 1, 1), "aba35872504404e85a4ab327577a1ea01cefd7558cb9366ee0882f1a08544cdf"),
    64: ((1, 1, 0, 0, 0, 0, 1), "add391b6e7520c4fe4dbd27482de6f4191939141dbb95ab6a759eb6b7804722b"),
    81: ((2, 1, 0, 0, 1), "3d1b96486dbf892d67c248860df8f72b5d8ba2fee6401cefcff3bcb1bc7fb49f"),
    121: ((7, 1, 1), "fb6d34b1a2f8993f22b3683a7c8915a5b85610aeeccf0895b7288a3e9666b772"),
    125: ((2, 3, 0, 1), "f8ce45099bed159401ce5ffa21e75baf526895720d0993b167a6c198f1bb685d"),
    128: ((1, 1, 0, 0, 0, 0, 0, 1), "cd62bd15b3fdd5adaf777a99ce0ab327f4e489bfc596f509e7ed01dffc049941"),
    169: ((2, 1, 1), "58d0682df211f3bbd707cb065a6f345bcdab334f2302de9309e44c6b314b3829"),
    243: ((1, 2, 0, 0, 0, 1), "3972215707772f603b5c8821179ab01865e4d2de1136550a4568b8f92c3cc96e"),
    256: ((1, 0, 1, 1, 1, 0, 0, 0, 1), "d82bd328e9f64438f7af2febf51b2f15f65e599a849216a812789e5023ca5d59"),
}


@pytest.mark.parametrize("q", sorted(_EXTENSION_FIELDS))
def test_extension_field_tables_are_pinned(q):
    field = GF(q)
    modulus, digest = _EXTENSION_FIELDS[q]
    assert field.modulus == modulus
    assert hashlib.sha256(",".join(map(str, field.exp)).encode()).hexdigest() == digest
    x = [0, 1] + [0] * (field.e - 2)
    assert len(set(field.exp)) == q - 1 and field.exp[0] == 1
    for a, b in zip(field.exp, field.exp[1:] + field.exp[:1]):  # x^(q-1) = x^0
        assert _from_digits(_poly_mul_reduce_oracle(_digits(a, field.p, field.e), x,
                                                    list(modulus), field.p), field.p) == b
