"""Property and golden tests for the field kernel.

The scalar kernel is gf2poly.mul (windowed carry-less product) and
gf2poly.square (bit spreading), each followed by the one reduction table of
the tower read from the top byte down (Tower.mul, Tower.square), Tower.inv
(shift-and-add extended Euclid) and the Frobenius columns. Each property
runs on the default towers at n = 2, 3, 4, 5, 7 and on two towers whose big
modulus has a dense tail (24,16,3,1,0 and 30,29,0), where a folded top byte
reaches the most bytes below it. The vectorised product Tower.mul_vec
(chunked, masked integer products, reduced on int64 copies of the same
table) must equal the scalar one elementwise, on those two towers too, and
the norm-form suborbit representative N(z)/z of z = alpha + g must lie in
the affine class of the scalar inv(z).
"""

import copy
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits import counting, gf2poly, make_tower, mobius

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
        assert ctx.square(x) == schoolbook_mul(ctx, x, x)

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


# ------------------------------------------------------------ vectorised kernel


def test_vec_kernel_matches_scalar_on_every_element_n2():
    ctx = tower((2, None))
    x = np.arange(1 << 12, dtype=np.int64)
    for y in [x, x[::-1], np.roll(x, 1000)] + [np.full_like(x, c) for c in (0, 1, 0x2b3)]:
        want = [ctx.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert ctx.mul_vec(x, y).tolist() == want


@pytest.mark.parametrize(
    "key", [(3, None), (5, None), (7, None), (10, None), (4, "24,16,3,1,0"), (5, "30,29,0")],
    ids=lambda key: str(key[0] if key[1] is None else key))
def test_vec_kernel_matches_scalar(key):
    ctx = tower(key)
    pairs = st.tuples(field_elements(key), field_elements(key))

    @KERNEL
    @given(st.lists(pairs, min_size=1, max_size=40))
    def check(drawn):
        x, y = (np.array(col, dtype=np.int64) for col in zip(*drawn))
        assert ctx.mul_vec(x, y).tolist() == [ctx.mul(a, b) for a, b in drawn]
        column = ctx.mul_vec(x[:, None], y[:, None])
        assert column.shape == (len(drawn), 1)
        assert column[:, 0].tolist() == ctx.mul_vec(x, y).tolist()

    check()


@pytest.mark.parametrize("n", [5, 10])
def test_mul_vec_all_ones(n):
    """All-ones operands put the most terms on each masked slot of a chunk."""
    ctx = make_tower(n)
    ones = (1 << 6 * n) - 1
    x = np.array([ones, ones, ones ^ 1, 1 << 6 * n - 1, 3], dtype=np.int64)
    y = np.array([ones, 1, ones, ones, ones], dtype=np.int64)
    assert ctx.mul_vec(x, y).tolist() == [ctx.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]


def assert_norm_form(ctx, alphas):
    """Each suborbit representative of z = alpha + g is N(z)/z: z times it is
    a nonzero element of GF(q), and it has the class rank of inv(z)."""
    reps = mobius.suborbit_representatives(ctx, np.array(alphas, dtype=np.int64))
    z = [[a ^ g for g in ctx.subfield] for a in alphas]
    inverses = np.array([[ctx.inv(v) for v in row] for row in z], dtype=np.int64)
    index = counting._class_index(ctx)
    assert (reps[:, 0] == alphas).all()
    assert (index.classes(reps[:, 1:]) == index.classes(inverses)).all()
    subfield = set(ctx.subfield_nonzero())
    assert all(ctx.mul(v, r) in subfield
               for row, rrow in zip(z, reps[:, 1:].tolist()) for v, r in zip(row, rrow))


def test_norm_form_on_every_element_n2():
    ctx = tower((2, None))
    alphas = [a for a in range(1 << 12) if ctx.is_degree_six(a)]
    assert len(alphas) == 4020
    assert_norm_form(ctx, alphas)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_norm_form_matches_scalar_inverse(n):
    ctx = make_tower(n)

    @KERNEL
    @given(st.lists(field_elements((n, None)).filter(ctx.is_degree_six),
                    min_size=1, max_size=3))
    def check(alphas):
        assert_norm_form(ctx, alphas)

    check()


def test_vec_kernel_refuses_towers_above_63_bits():
    ctx = make_tower(11)  # 66-bit encodings
    x = np.array([1, 2, 3], dtype=np.int64)
    with pytest.raises(ValueError, match="below 64 bits"):
        ctx.mul_vec(x, x)
    with pytest.raises(ValueError, match="below 64 bits"):
        ctx.conjugate_tables(list(range(66)))
