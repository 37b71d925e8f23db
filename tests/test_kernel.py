"""Property and golden tests for the field kernel.

The scalar kernel is gf2poly.mul (windowed carry-less product) and
gf2poly.square (bit spreading), each followed by the one reduction table of
the tower read from the top byte down (Tower.mul, Tower.square), Tower.inv
(shift-and-add extended Euclid) and the Frobenius columns. Each property
runs on the default towers at n = 2, 3, 4, 5, 7 and on two towers whose big
modulus has a dense tail (24,16,3,1,0 and 30,29,0), where a folded top byte
reaches the most bytes below it. The coordinate kernel, scan.mul_vec and
scan.inv_vec, works on u | v << 3n for x = u + v t over GF(q^3), on log
tables of GF(q^3)*: read through its tables to and from encodings, its
products, their broadcast tables ((1, R) against (E, 1)) and its inverses,
0 to 0, optionally scaled by an element of GF(q^3) and times a numerator,
must equal the scalar Tower.mul and Tower.inv on every element of
GF(2^12), on every element of GF(q^3) at n = 2 and 3, on all-ones
coordinates, and on draws at n = 3, 4, 5, 7 and on the two dense-tail
towers; it refuses n = 8..10, whose tables would hold 2^(3n) entries, and
each check of its table build raises when a patched input breaks it. The
suborbit representatives of alpha, which it computes, must be alpha and
then the scalar inv(alpha + g) for each g of the subfield. In the
coordinates of scan.normal_tables, squaring must rotate left by one bit.
"""

import copy
import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits import gf2poly, gf2tower, mobius, scan
from goppa_orbits.gf2tower import make_tower

from conftest import fixed_field_basis, schoolbook_mul

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# (n, big modulus exponents or None, embedding columns, digest of all 6n _frob_cols),
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
    assert [ctx.embed_base(1 << i) for i in range(n)] == embed_cols
    cols = [ctx._frob_cols(i) for i in range(ctx.big_degree)]
    assert hashlib.sha256(repr(cols).encode()).hexdigest()[:16] == frob_digest


def test_default_roots_table_agrees_with_the_golden_embedding_columns():
    """gamma, column 1 of each default-moduli row, is the `_ROOTS` entry."""
    roots = gf2tower._default_roots()
    assert all(roots[n] == embed_cols[1] for n, big, embed_cols, _ in GOLDEN if big is None)


def test_inv_refuses_reducible_modulus():
    bad = copy.copy(tower((2, None)))
    bad.modulus_big = gf2poly.mul(0b111, 0b1011)  # (x^2 + x + 1)(x^3 + x + 1)
    with pytest.raises(AssertionError, match="not irreducible"):
        bad.inv(0b111)
    assert gf2poly.mod(gf2poly.mul(0b10, bad.inv(0b10)), bad.modulus_big) == 1


# ------------------------------------------------------------ vectorised kernel


def to_coords(ctx, x):
    """u | v << 3n | (u^2 + c v^2) << 6n of each encoding, on the kernel's table."""
    return ctx.apply_tables(scan._cubic_logs(ctx).coords, np.asarray(x, dtype=np.int64))


def from_coords(ctx, p):
    """The encoding of each u | v << 3n, on the kernel's table."""
    return ctx.apply_tables(scan._cubic_logs(ctx).out, p)


def mul_on_coords(ctx, x, y):
    return from_coords(ctx, scan.mul_vec(ctx, to_coords(ctx, x), to_coords(ctx, y)))


def inv_on_coords(ctx, x, scale=None, numer=None):
    """numer/(x s) by `inv_vec`, s in GF(q^3) passed as its u coordinate."""
    s = None if scale is None else to_coords(ctx, scale) & (1 << 3 * ctx.n) - 1
    y = None if numer is None else to_coords(ctx, numer)
    return from_coords(ctx, scan.inv_vec(ctx, to_coords(ctx, x), s, y))


def scalar_inv(ctx, x):
    return ctx.inv(x) if x else 0


def test_vec_kernel_matches_scalar_on_every_element_n2():
    ctx = tower((2, None))
    x = np.arange(1 << 12, dtype=np.int64)
    for y in [x, x[::-1], np.roll(x, 1000)] + [np.full_like(x, c) for c in (0, 1, 0x2b3)]:
        want = [ctx.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert mul_on_coords(ctx, x, y).tolist() == want
    assert inv_on_coords(ctx, x).tolist() == [0] + [ctx.inv(a) for a in range(1, 1 << 12)]
    for s in cubic_subfield(ctx)[:5] + [cubic_subfield(ctx)[-1]]:
        assert inv_on_coords(ctx, x, np.full_like(x, s)).tolist() == [
            scalar_inv(ctx, ctx.mul(a, s)) for a in x.tolist()]
        assert inv_on_coords(ctx, x, np.full_like(x, s), x[::-1]).tolist() == [
            ctx.mul(b, scalar_inv(ctx, ctx.mul(a, s)))
            for a, b in zip(x.tolist(), x[::-1].tolist())]


@pytest.mark.parametrize(
    "key", [(3, None), (4, None), (5, None), (7, None), (10, None), (4, "24,16,3,1,0"),
            (5, "30,29,0")],
    ids=lambda key: str(key[0] if key[1] is None else key))
def test_vec_kernel_matches_scalar(key):
    """Products, their broadcast tables, inverses, and quotients by x scaled
    by an element of GF(q^3) in coordinates, against the scalar kernel; at
    n = 10 both refuse."""
    ctx = tower(key)
    if ctx.n > 7:
        x = np.array([1, 2], dtype=np.int64)
        for call in (lambda: scan.mul_vec(ctx, x, x), lambda: scan.inv_vec(ctx, x)):
            with pytest.raises(ValueError, match=r"n <= 7: at n = 10 .* 2\^30 entries"):
                call()
        return
    cubic = cubic_subfield(ctx)
    pairs = st.tuples(field_elements(key), field_elements(key))

    @KERNEL
    @given(st.lists(pairs, min_size=1, max_size=40), st.integers(0, len(cubic) - 1))
    def check(drawn, pick):
        x, y = (np.array(col, dtype=np.int64) for col in zip(*drawn))
        assert mul_on_coords(ctx, x, y).tolist() == [ctx.mul(a, b) for a, b in drawn]
        cx, cy = to_coords(ctx, x), to_coords(ctx, y)
        column = scan.mul_vec(ctx, cx[:, None], cy[:, None])
        assert column.shape == (len(drawn), 1)
        assert column[:, 0].tolist() == scan.mul_vec(ctx, cx, cy).tolist()
        # every y against every x
        table = from_coords(ctx, scan.mul_vec(ctx, cx[None, :], cy[:, None]))
        assert table.shape == (len(drawn), len(drawn))
        assert table.tolist() == [[ctx.mul(a, b) for a in x.tolist()] for b in y.tolist()]
        assert inv_on_coords(ctx, x).tolist() == [scalar_inv(ctx, a) for a in x.tolist()]
        s = cubic[pick]
        assert inv_on_coords(ctx, x, np.full_like(x, s)).tolist() == [
            scalar_inv(ctx, ctx.mul(a, s)) for a in x.tolist()]
        assert inv_on_coords(ctx, x, np.full_like(x, s), y).tolist() == [
            ctx.mul(b, scalar_inv(ctx, ctx.mul(a, s))) for a, b in drawn]

    check()


def cubic_subfield(ctx):
    """GF(q^3) as big-field encodings: the span of its basis, doubled."""
    span = [0]
    for b in fixed_field_basis(ctx, 3 * ctx.n):
        span += [v ^ b for v in span]
    return span


@pytest.mark.parametrize("n", [2, 3])
def test_inv_vec_on_every_element_of_the_cubic_subfield(n):
    """There v = 0: the norm is u^2 and every log sum that holds v is clipped."""
    ctx = make_tower(n)
    x = cubic_subfield(ctx)
    assert len(x) == 1 << 3 * n
    assert (to_coords(ctx, x) >> 3 * n & (1 << 3 * n) - 1 == 0).all()  # v = 0
    assert inv_on_coords(ctx, x).tolist() == [scalar_inv(ctx, a) for a in x]


@pytest.mark.parametrize("n", [8, 9, 10])
def test_inv_vec_refuses_n8_to_n10_by_the_size_of_its_tables(n):
    """The product refuses them too: both read the same tables."""
    ctx = make_tower(n)
    prefix = rf"^mul_vec and inv_vec serve n <= 7: at n = {n} .* 2\^{3 * n} "
    x = np.array([1, 2], dtype=np.int64)
    for call in (lambda: scan.inv_vec(ctx, x), lambda: scan.mul_vec(ctx, x, x)):
        with pytest.raises(ValueError, match=prefix) as err:
            call()
        # the packed coordinates u | v << 3n | (u^2 + c v^2) << 6n outgrow an int64 too
        assert str(err.value).endswith(f"u | v << {3 * n} | (u^2 + c v^2) << {6 * n} "
                                       f"would need {9 * n} of the 63 bits of an int64")
    assert ("_cubic_logs",) not in ctx._np_tables


def assert_build_raises(ctx, message):
    with pytest.raises(AssertionError, match=re.escape(message)):
        scan.inv_vec(ctx, np.arange(1, 64, dtype=np.int64))
    assert ("_cubic_logs",) not in ctx._np_tables


def outside_cubic(ctx, x):
    return ctx.frobenius(x, 3 * ctx.n) != x


def test_inv_vec_build_checks_t(monkeypatch):
    """With 1/s read as 1, t is the draw z, and t + sigma^3n(t) = s, not 1."""
    ctx = make_tower(2)
    monkeypatch.setattr(ctx, "inv", lambda s: 1)
    assert_build_raises(ctx, "t + sigma^3n(t) is not 1")


def test_inv_vec_build_checks_c(monkeypatch):
    """A squaring that adds x^(6n-1), an element outside GF(q^3), moves c
    out of GF(q^3); t is built without squarings."""
    ctx = make_tower(2)
    top = 1 << ctx.big_degree - 1
    assert outside_cubic(ctx, top)
    square = ctx.square
    monkeypatch.setattr(ctx, "square", lambda x: square(x) ^ top)
    assert_build_raises(ctx, "c = t^2 + t lies outside GF(q^3)")


def test_inv_vec_build_checks_the_change_of_basis(monkeypatch):
    """Products by a factor outside GF(q^3) read as 0: t = z * (1/s) and the
    powers of w keep their values, the columns w^i t vanish."""
    ctx = make_tower(2)
    ctx._frob_cols(ctx.n)  # outside_cubic walks them: built on the faulty mul, they would recurse
    mul = ctx.mul
    monkeypatch.setattr(ctx, "mul", lambda a, b: 0 if outside_cubic(ctx, b) else mul(a, b))
    assert_build_raises(ctx, "the basis w^i, w^i t of GF(q^6) is singular")


def test_inv_vec_build_checks_that_g_generates(monkeypatch):
    """At n = 2 the first trace of degree 6 has a minimal polynomial that is
    not primitive, so y does not generate its K; a test that passes
    everything keeps that model, and the powers of y repeat before they
    cover GF(64)*."""
    ctx = make_tower(2)
    monkeypatch.setattr(gf2poly, "is_generator", lambda m: True)
    assert_build_raises(ctx, "the powers of g are not all of GF(q^3)*")


@pytest.mark.parametrize("n", [5, 10])
def test_mul_vec_all_ones(n):
    """All-ones coordinates have u + v = 0, whose log is log 0, in the
    third product of `mul_vec`; all-ones encodings and the top bit join
    them. At n = 10 the coordinate kernel refuses."""
    ctx = make_tower(n)
    k = 3 * n
    ones = (1 << 2 * k) - 1
    if n > 7:
        with pytest.raises(ValueError, match="serve n <= 7"):
            scan.mul_vec(ctx, np.array([ones]), np.array([ones]))
        return
    cx = np.array([ones, ones, ones >> k, ones ^ 1, 1 << k], dtype=np.int64)
    cy = np.array([ones, 1, ones, 1 << k, ones], dtype=np.int64)
    x, y = from_coords(ctx, cx), from_coords(ctx, cy)
    assert from_coords(ctx, scan.mul_vec(ctx, cx, cy)).tolist() == [
        ctx.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]
    enc = np.array([(1 << 6 * n) - 1, 1 << 6 * n - 1, 3], dtype=np.int64)
    assert mul_on_coords(ctx, enc, enc[::-1]).tolist() == [
        ctx.mul(a, b) for a, b in zip(enc.tolist(), enc[::-1].tolist())]


def assert_inverse_form(ctx, alphas):
    """The suborbit representatives of alpha are alpha, then the scalar
    inverse of alpha + g for each g of the subfield, ascending."""
    reps = mobius.suborbit_representatives(ctx, np.array(alphas, dtype=np.int64))
    assert reps.tolist() == [[a] + [ctx.inv(a ^ g) for g in ctx.subfield] for a in alphas]


def test_norm_form_on_every_element_n2():
    ctx = tower((2, None))
    alphas = [a for a in range(1 << 12) if ctx.is_degree_six(a)]
    assert len(alphas) == 4020
    assert_inverse_form(ctx, alphas)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_norm_form_matches_scalar_inverse(n):
    ctx = make_tower(n)

    @KERNEL
    @given(st.lists(field_elements((n, None)).filter(ctx.is_degree_six),
                    min_size=1, max_size=3))
    def check(alphas):
        assert_inverse_form(ctx, alphas)

    check()


def rotate(v, m):
    """v rotated left by one bit within m bits."""
    return ((v << 1) & ((1 << m) - 1)) | (v >> (m - 1))


def test_squaring_rotates_normal_coordinates_on_every_element_n2():
    ctx = tower((2, None))
    x = np.arange(1 << 12, dtype=np.int64)
    v = ctx.apply_tables(scan.normal_tables(ctx), x)
    assert np.unique(v).size == 1 << 12  # the coordinate map is a bijection
    squares = np.array([ctx.square(a) for a in range(1 << 12)], dtype=np.int64)
    assert (rotate(v, 12) == ctx.apply_tables(scan.normal_tables(ctx), squares)).all()


@pytest.mark.parametrize("n", range(3, 11))
def test_squaring_rotates_normal_coordinates(n):
    ctx = make_tower(n)

    @KERNEL
    @given(st.lists(field_elements((n, None)), min_size=1, max_size=20))
    def check(drawn):
        x = np.array(drawn, dtype=np.int64)
        squares = np.array([ctx.square(a) for a in drawn], dtype=np.int64)
        assert (rotate(ctx.apply_tables(scan.normal_tables(ctx), x), 6 * n)
                == ctx.apply_tables(scan.normal_tables(ctx), squares)).all()

    check()


def test_vec_kernel_refuses_towers_above_63_bits():
    ctx = make_tower(11)  # 66-bit encodings
    x = np.array([1, 2, 3], dtype=np.int64)
    with pytest.raises(ValueError, match="below 64 bits"):
        scan.mul_vec(ctx, x, x)
    with pytest.raises(ValueError, match="below 64 bits"):
        scan.inv_vec(ctx, x)
