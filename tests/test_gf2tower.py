import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits import counting, gf2poly, make_tower, random_degree_six
from goppa_orbits.gf2tower import Tower, _apply_cols, _ColumnSolver, solve_affine_linearized


from conftest import (
    coset_array,
    embedding_by_scan,
    eval_poly,
    schoolbook_mul,
    span,
    subfield_span_array,
)


def test_construction_rejects_small_and_huge_n():
    with pytest.raises(ValueError):
        make_tower(1)
    with pytest.raises(ValueError):
        make_tower(17)


def test_tower_above_63_bits_builds():
    # 6n = 72: the subfield is enumerated as Python ints, not int64
    ctx = make_tower(12)
    assert len(ctx.subfield) == 1 << 12 and list(ctx.subfield) == sorted(ctx.subfield)
    a = ctx.subfield[-1]
    assert ctx.embed_base(ctx.to_base(a)) == a
    assert ctx.mul(a, ctx.inv(a)) == 1 and ctx.frobenius(a, 12) == a


def test_deterministic_moduli(tower5):
    again = make_tower(5)
    assert again.modulus_base == tower5.modulus_base
    assert again.modulus_big == tower5.modulus_big
    assert gf2poly.exponents(tower5.modulus_base) == [5, 2, 0]
    assert gf2poly.exponents(tower5.modulus_big) == [30, 1, 0]
    assert again == tower5


def test_modulus_overrides_validated():
    with pytest.raises(ValueError):
        make_tower(2, modulus_base=0b110)
    with pytest.raises(ValueError):
        make_tower(2, modulus_big=(1 << 12) | 1)
    alt = make_tower(2, modulus_big=gf2poly.from_exponents([12, 6, 4, 1, 0]))
    assert alt.modulus_big != make_tower(2).modulus_big
    x = 0x5ab
    assert alt.mul(x, alt.inv(x)) == 1


def test_field_axioms_n2_exhaustive_inverses(tower2):
    for x in range(1, 1 << 12):
        if x % 97:
            continue
        assert tower2.mul(x, tower2.inv(x)) == 1
    assert tower2.mul(0x2b3, 1) == 0x2b3
    with pytest.raises(ZeroDivisionError):
        tower2.inv(0)


def test_f4_multiplication_table(tower2):
    # embedded generator of GF(4) satisfies g^2 = g + 1
    g = tower2.embed_base(0b10)
    assert tower2.mul(g, g) == tower2.embed_base(0b11)
    assert tower2.mul(g, g) == g ^ 1


def test_mul_against_schoolbook(tower5):
    rng = random.Random(2)
    for _ in range(200):
        x = rng.getrandbits(30)
        y = rng.getrandbits(30)
        assert tower5.mul(x, y) == schoolbook_mul(tower5, x, y)


def test_inverse_law_random(tower5):
    rng = random.Random(3)
    for _ in range(100):
        x = rng.getrandbits(30)
        if x == 0:
            continue
        assert tower5.mul(x, tower5.inv(x)) == 1


def test_inv_batch(tower5):
    rng = random.Random(4)
    vals = [rng.getrandbits(30) | 1 for _ in range(33)]
    assert tower5.inv_batch(vals) == [tower5.inv(v) for v in vals]
    with pytest.raises(ZeroDivisionError):
        tower5.inv_batch([1, 0, 3])


def test_frobenius_group_law(tower5):
    rng = random.Random(5)
    m = tower5.big_degree
    for _ in range(25):
        x = rng.getrandbits(30)
        i, j = rng.randrange(m), rng.randrange(m)
        assert tower5.frobenius(x, 0) == x
        assert tower5.frobenius(x, m) == x
        assert (tower5.frobenius(tower5.frobenius(x, i), j)
                == tower5.frobenius(x, (i + j) % m))
        assert tower5.frobenius(x, 1) == tower5.mul(x, x)


def test_frobenius_fixed_field_count(tower2):
    # x -> x^(2^n) fixes exactly the 2^n embedded base-field elements
    fixed = [x for x in range(1 << 12) if tower2.frobenius(x, 2) == x]
    assert len(fixed) == 4
    assert tuple(fixed) == tower2.subfield


def test_generator_order(tower2):
    q1 = (1 << 12) - 1
    g = 2
    assert tower2.pow(g, q1) == 1


def test_degree_census_small(tower2, tower3):
    for ctx, n in ((tower2, 2), (tower3, 3)):
        if n == 2:
            counts = {1: 0, 2: 0, 3: 0, 6: 0}
            for x in range(1 << 12):
                counts[len(ctx.conjugates(x))] += 1
            assert counts == {1: 4, 2: 12, 3: 60, 6: 4020}
    assert tower2.conjugates(1) == (1,)
    expected = (1 << 12) - (1 << 4) - (1 << 6) + (1 << 2)
    assert expected == 4020


@functools.cache
def tower_and_bases(n):
    ctx = make_tower(n)
    return ctx, {d: ctx._fixed_field_basis(d * n) for d in (1, 2, 3, 6)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 7), d=st.sampled_from((1, 2, 3, 6)), coords=st.integers(0, 2**42 - 1))
def test_degree_chain_matches_the_frobenius_definition(n, d, coords):
    """On an element of GF(2^(dn)), the sigma^n chain gives the least d' in
    1, 2, 3, 6 with sigma^(d'n)(x) = x, and is_degree_six tests
    sigma^(2n)(x) != x != sigma^(3n)(x)."""
    ctx, bases = tower_and_bases(n)
    x = _apply_cols(bases[d], coords % (1 << d * n))
    fixed = [e for e in (1, 2, 3, 6) if ctx.frobenius(x, e * n) == x]
    orbit = ctx.conjugates(x)
    assert len(orbit) == fixed[0] and d % fixed[0] == 0
    assert list(orbit) == [ctx.frobenius(x, k * n) for k in range(len(orbit))]
    assert ctx.is_degree_six(x) == (2 not in fixed and 3 not in fixed)


@pytest.mark.parametrize("n", [2, 5, 7])
def test_degree_tests_build_no_frobenius_columns(n):
    # __init__ builds the identity and sigma^n columns; the degree tests need no others
    ctx = make_tower(n)
    assert sorted(ctx._frob_cache) == [0, n]
    rng = random.Random(n)
    for _ in range(5):
        alpha = random_degree_six(ctx, rng)
        assert len(ctx.minimal_polynomial(alpha)) == 7
    assert sorted(ctx._frob_cache) == [0, n]


def test_degree_six_formula_values():
    # |S| = 2^(6n) - 2^(2n) - 2^(3n) + 2^n
    assert (1 << 30) - (1 << 10) - (1 << 15) + (1 << 5) == 1_073_708_064


def test_frobenius_vec_matches_scalar(tower5):
    rng = np.random.default_rng(6)
    x = rng.integers(0, 1 << 30, 500, dtype=np.int64)
    for i in (0, 1, 5, 10, 15, 29):
        vec = tower5.frobenius_vec(x, i)
        assert [int(v) for v in vec[::97]] == [tower5.frobenius(int(v), i) for v in x[::97]]


@pytest.mark.parametrize("n", [2, 5, 7])
def test_conjugate_tables_fuse_frobenius_and_to_coords(n):
    """The class index's fused stack is to_coords after x -> x^(2^i): the
    scalar Frobenius, then coordinates in the basis gamma_k theta^j, then
    coordinate 0 dropped."""
    ctx = make_tower(n)
    gammas = [ctx.embed_base(1 << k) for k in range(n)]
    coords = _ColumnSolver([ctx.mul(g, ctx.pow(2, j)) for j in range(6) for g in gammas])
    rng = np.random.default_rng(n)
    x = rng.integers(0, 1 << 6 * n, (4, 25), dtype=np.int64)
    fused = Tower.apply_tables(counting._class_index(ctx).conjugates, x)
    assert fused.shape == (4, 25, 6 * n)
    for i in range(6 * n):
        want = [coords.solve(ctx.frobenius(v, i)) >> n for v in x.ravel().tolist()]
        assert fused[..., i].ravel().tolist() == want


def test_embedding_is_field_homomorphism(tower5):
    rng = random.Random(7)
    n, base_mod = tower5.n, tower5.modulus_base
    for _ in range(50):
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        ab = gf2poly.mod(gf2poly.mul(a, b), base_mod)
        assert (tower5.embed_base(a) ^ tower5.embed_base(b)
                == tower5.embed_base(a ^ b))
        assert (tower5.mul(tower5.embed_base(a), tower5.embed_base(b))
                == tower5.embed_base(ab))
    assert tower5.embed_base(0) == 0
    assert tower5.embed_base(1) == 1


def test_to_base_roundtrip(tower5):
    for a in range(32):
        assert tower5.to_base(tower5.embed_base(a)) == a
    with pytest.raises(ValueError):
        tower5.to_base(0x2)  # x has degree 30 over GF(2), not in the subfield


def test_minimal_polynomial_degrees(tower5):
    # base-field element: x + alpha
    e = tower5.embed_base(0b10011 & 0x1f)
    assert tower5.minimal_polynomial(e) == (e, 1)
    # embedded GF(4) generator at n=2 satisfies the unique irreducible quadratic
    t2 = make_tower(2)
    g = t2.embed_base(0b10)
    assert t2.frobenius(g, 1) == g ^ 1  # over GF(2): g^2 + g + 1 = 0
    rng = random.Random(8)
    for _ in range(5):
        x = rng.getrandbits(30)
        if not tower5.is_degree_six(x):
            continue
        po = tower5.minimal_polynomial(x)
        assert len(po) == 7 and po[-1] == 1
        assert eval_poly(tower5, po, x) == 0


def test_hex_roundtrip(tower5):
    assert tower5.hex_width == 8
    assert tower5.to_hex(0x1f) == "0000001f"
    assert tower5.from_hex("0000001f") == 0x1f
    with pytest.raises(ValueError):
        tower5.from_hex("fffffffff")
    assert tower5.base_to_hex(31) == "1f"


def test_solve_affine_identity(tower5):
    ident = tuple(1 << j for j in range(30))
    assert solve_affine_linearized(ident, 0x5a5a) == (0x5a5a, ())


def test_solve_affine_against_exhaustive_sweep(tower2):
    """GF(2^12) oracle: solver output equals a brute-force root sweep."""
    rng = random.Random(11)
    m = 12
    for _ in range(8):
        cols = tuple(rng.getrandbits(m) for _ in range(m))
        offset = rng.getrandbits(m)
        b = rng.getrandbits(m)
        got = coset_array(solve_affine_linearized(cols, b ^ offset)).tolist()
        brute = [x for x in range(1 << m) if _apply_cols(cols, x) ^ offset == b]
        assert got == brute
        # count is 0 or a power of two (a coset of the kernel)
        assert len(got) == 0 or (len(got) & (len(got) - 1)) == 0


def test_fixed_field_kernel(tower5):
    particular, kernel = solve_affine_linearized(tower5._frob_plus_id_cols(6), 0)  # x^64 + x
    sols = span(kernel)
    assert particular == 0 and sols.size == 64
    assert all(tower5.frobenius(int(v), 6) == int(v) for v in sols)


def test_subfield_span_array(tower5):
    sub10 = subfield_span_array(tower5, 10)
    assert sub10.size == 1 << 10
    assert all(tower5.frobenius(int(v), 10) == int(v) for v in sub10[:16])
    with pytest.raises(ValueError):
        subfield_span_array(tower5, 7)


@pytest.mark.parametrize("n", range(2, 8))
def test_base_logs_are_a_cyclic_group_table(n):
    """exp lists q - 1 distinct base encodings, each the generator times the
    previous; the embedded powers are their embeddings, and log inverts them."""
    ctx = make_tower(n)
    assert ("base_logs",) not in ctx._np_tables  # built on first use, not by __init__
    logs = ctx.base_logs()
    q = 1 << n
    assert len(logs.exp) == len(set(logs.exp)) == q - 1 and sorted(logs.exp) == list(range(1, q))
    g = logs.exp[1]
    for k, a in enumerate(logs.exp):
        assert gf2poly.mod(gf2poly.mul(a, g), ctx.modulus_base) == logs.exp[(k + 1) % (q - 1)]
        assert logs.embedded[k] == ctx.embed_base(a)
        assert logs.log[logs.embedded[k]] == k
        assert logs.base_log[a] == k
    assert logs.base_log[0] is None
    assert ctx.base_logs() is logs


@pytest.mark.parametrize("n", range(2, 8))
def test_frobenius_chain_equals_repeated_squaring(n):
    ctx = make_tower(n)
    m = ctx.big_degree
    rng = random.Random(n)
    for x in (0, 1, rng.getrandbits(m), rng.getrandbits(m)):
        squares = [x]
        for _ in range(m - 1):
            squares.append(ctx.mul(squares[-1], squares[-1]))
        for i in range(-m, m + 1):
            assert ctx.frobenius(x, i) == squares[i % m], (x, i)
    assert sorted(ctx._frob_cache) == [0, n]


def test_equiv_request_builds_only_the_identity_and_sigma_n_columns(monkeypatch, capsys):
    from goppa_orbits import cli

    towers = []

    def keep(*args, **kwargs):
        towers.append(make_tower(*args, **kwargs))
        return towers[-1]

    monkeypatch.setattr(cli, "make_tower", keep)
    for seed in range(3):
        assert cli.main(["equiv", "--n", "5", "--alpha", "random", "--map", "random",
                         "--seed", str(seed), "--json"]) == 0
    capsys.readouterr()
    assert [sorted(ctx._frob_cache) for ctx in towers] == [[0, 5]] * 3


# ------------------------------------------------------------------ embedding


@pytest.mark.parametrize("n", range(2, 17))
def test_embedding_equals_the_ascending_scan(n):
    """Default moduli: the root found in an n-bit copy of the subfield gives
    the columns of the enc-least root of modulus_base in the big field."""
    ctx = make_tower(n)
    assert ctx._embed_cols == embedding_by_scan(ctx)


def random_irreducible(rng, d):
    while True:
        p = (1 << d) | rng.getrandbits(d) | 1
        if gf2poly.is_irreducible(p):
            return p


def least_subfield_element_degree(ctx):
    """Degree over GF(2) of the subfield's least element besides 0 and 1."""
    w = ctx.subfield[2]
    return next(d for d in range(1, ctx.n + 1) if ctx.n % d == 0 and ctx.frobenius(w, d) == w)


@pytest.mark.parametrize("n", range(3, 9))
def test_embedding_equals_the_ascending_scan_for_random_moduli(n):
    """Five towers per n: random irreducible modulus_base (every one there is
    at n = 3 and 4, which have 2 and 3) and a random modulus_big."""
    rng = random.Random(100 + n)
    bases = [p for p in range(1 << n, 2 << n) if gf2poly.is_irreducible(p)]
    bases = bases if len(bases) <= 5 else rng.sample(bases, 5)
    for k in range(5):
        ctx = make_tower(n, modulus_base=bases[k % len(bases)],
                         modulus_big=random_irreducible(rng, 6 * n))
        assert ctx._embed_cols == embedding_by_scan(ctx), (ctx.modulus_base, ctx.modulus_big)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_embedding_passes_a_least_element_in_a_proper_subfield(n):
    """At composite n, the least subfield element besides 0 and 1 can have
    degree below n, and the search for w must pass it: the first random
    modulus_big that puts it there."""
    rng = random.Random(200 + n)
    for _ in range(300):
        ctx = make_tower(n, modulus_big=random_irreducible(rng, 6 * n))
        if least_subfield_element_degree(ctx) < n:
            break
    else:
        pytest.fail("no tower with a least element in a proper subfield")
    assert ctx._embed_cols == embedding_by_scan(ctx)
