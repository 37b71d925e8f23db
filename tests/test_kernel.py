"""Property and golden tests for the scalar field kernel.

The kernel is gf2poly.mul (windowed carry-less product) plus Tower.mul
(byte-table reduction), Tower.inv (shift-and-add extended Euclid) and the
Frobenius columns. Each property runs on the default towers at n = 2, 3, 4,
5, 7 and on two towers whose big modulus has a dense tail.
"""

import copy
import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits import gf2poly, make_tower

from conftest import schoolbook_mul

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# (n, big modulus exponents or None, _embed_cols, digest of all 6n _frob_cols),
# recorded from the bit-serial kernel this one replaced.
GOLDEN = [
    (2, None, [1, 72], "a6873da0c1aafc96"),
    (3, None, [1, 584, 4169], "0753750c2e63e779"),
    (4, None, [1, 12026308, 12030346, 4610159], "78d74538b23765f0"),
    (5, None, [1, 259815775, 381546133, 216698684, 413630174], "24ea5247ca3a1ce3"),
    (7, None, [1, 73052195346, 139049861632, 4286944492666, 623886008320,
               4214629675072, 3877295434298], "f2fa05f64213bbe2"),
    (4, "24,16,3,1,0", [1, 11226854, 11231161, 5594646], "2cadc57d96d123fb"),
    (5, "30,29,0", [1, 262328250, 298624346, 254448820, 602443973], "40f3586c64ad36d7"),
]
TOWER_KEYS = [(n, big) for n, big, _, _ in GOLDEN]


@functools.cache
def tower(key):
    n, big = key
    mb = gf2poly.from_exponents([int(e) for e in big.split(",")]) if big else None
    return make_tower(n, modulus_big=mb)


def field_elements(key, min_value=0):
    return st.integers(min_value, (1 << 6 * key[0]) - 1)


def bit_loop_mul(a, b):
    r = 0
    for k in range(b.bit_length()):
        if (b >> k) & 1:
            r ^= a << k
    return r


@KERNEL
@given(st.integers(0, 1 << 90), st.integers(0, 1 << 90))
def test_gf2poly_mul_matches_bit_loop(a, b):
    assert gf2poly.mul(a, b) == bit_loop_mul(a, b)
    assert gf2poly.mul(b, a) == bit_loop_mul(a, b)


@pytest.mark.parametrize("key", TOWER_KEYS, ids=str)
def test_mul_matches_schoolbook(key):
    ctx = tower(key)

    @KERNEL
    @given(field_elements(key), field_elements(key))
    def check(x, y):
        assert ctx.mul(x, y) == schoolbook_mul(ctx, x, y)

    check()


@pytest.mark.parametrize("key", TOWER_KEYS, ids=str)
def test_inverse_law(key):
    ctx = tower(key)

    @KERNEL
    @given(field_elements(key, min_value=1))
    def check(x):
        assert ctx.mul(x, ctx.inv(x)) == 1

    check()


@pytest.mark.parametrize("key", TOWER_KEYS, ids=str)
def test_frobenius_is_repeated_squaring(key):
    ctx = tower(key)

    @KERNEL
    @given(field_elements(key), st.integers(0, ctx.big_degree - 1))
    def check(x, i):
        y = x
        for _ in range(i):
            y = ctx.mul(y, y)
        assert ctx.frobenius(x, i) == y

    check()


@pytest.mark.parametrize("n,big,embed_cols,frob_digest", GOLDEN, ids=str)
def test_tower_internals_golden(n, big, embed_cols, frob_digest):
    ctx = tower((n, big))
    assert ctx._embed_cols == embed_cols
    cols = [ctx._frob_cols(i) for i in range(ctx.big_degree)]
    assert hashlib.sha256(repr(cols).encode()).hexdigest()[:16] == frob_digest


def test_inv_refuses_reducible_modulus():
    bad = copy.copy(tower((2, None)))
    bad.modulus_big = gf2poly.mul(0b111, 0b1011)  # (x^2 + x + 1)(x^3 + x + 1)
    with pytest.raises(AssertionError, match="not irreducible"):
        bad.inv(0b111)
    assert gf2poly.mod(gf2poly.mul(0b10, bad.inv(0b10)), bad.modulus_big) == 1
