import functools
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits import cli, counting, gf2poly, gf2tower, scan
from goppa_orbits.gf2tower import (
    Tower,
    _apply_cols,
    _default_moduli,
    _default_roots,
    make_tower,
    solve_affine_linearized,
)
from goppa_orbits.mobius import random_degree_six


from conftest import (
    coset_array,
    embed_cols,
    embedding_by_scan,
    eval_poly,
    fixed_field_basis,
    power,
    schoolbook_mul,
    span,
    subfield_span_array,
)


def moduli(ctx):
    """n and both moduli, which fix a tower and everything it builds."""
    return ctx.n, ctx.modulus_base, ctx.modulus_big


def test_construction_rejects_small_and_huge_n():
    """Above n = 16 only the primes up to 127 have default moduli: a
    composite n there, or any n past 127, is refused by a message that names
    the primes-only table, before any given modulus is read."""
    with pytest.raises(ValueError):
        make_tower(1)
    for n in (18, 121, 131):
        with pytest.raises(ValueError, match=rf"^n={n} is outside the construction cap: "
                                             r"the default moduli are tabled for every "
                                             r"n <= 16 and for the primes 17 <= n <= 127 only$"):
            make_tower(n, modulus_base=0)
    assert make_tower(17).big_degree == 102


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
    assert moduli(again) == moduli(tower5)


def test_modulus_overrides_validated():
    with pytest.raises(ValueError):
        make_tower(2, modulus_base=0b110)
    with pytest.raises(ValueError):
        make_tower(2, modulus_big=(1 << 12) | 1)
    # (x^6 + x + 1)(x^6 + x^3 + 1) satisfies x^(2^12) = x, so only the gcd
    # test rejects it; x^30 + x^2 + 1 already fails x^(2^30) = x
    for n, exps in ((2, [12, 9, 7, 4, 3, 1, 0]), (5, [30, 2, 0])):
        with pytest.raises(ValueError, match=r"^modulus_big must be irreducible of degree 6n$"):
            make_tower(n, modulus_big=gf2poly.from_exponents(exps))
    alt = make_tower(2, modulus_big=gf2poly.from_exponents([12, 6, 4, 1, 0]))
    assert alt.modulus_big != make_tower(2).modulus_big
    x = 0x5ab
    assert alt.mul(x, alt.inv(x)) == 1


# the towers' reach: every n <= 16 and each prime 17 <= n <= 127
SERVED = [n for n in range(2, 128) if n <= 16 or counting.is_prime(n)]
SCOPE = "default moduli are tabled for every n <= 16 and for the primes 17 <= n <= 127 only"


def test_default_moduli_table_holds_n_and_6n_for_each_served_n():
    """One table holds every degree a tower asks for, n and 6n for each
    served n: 79 exponent lists, each headed by its degree, ascending (degree
    12 is both n = 12 and 6n at n = 2)."""
    table = _default_moduli()
    assert len(table) == 79 and list(table) == sorted(table)
    assert set(table) == {d for n in SERVED for d in (n, 6 * n)}
    assert all(exps[0] == d and list(exps) == sorted(exps, reverse=True)
               for d, exps in table.items())


def test_default_moduli_table_is_the_lowest_irreducible_search(monkeypatch):
    """Each entry of degree <= 96 is `lowest_irreducible`'s pick (the larger
    ones under `-m slow`); a tower built on the table equals the one built
    with those moduli given, and no tower searches."""
    table = _default_moduli()
    for d, exps in table.items():
        if d <= 96:
            assert gf2poly.from_exponents(exps) == gf2poly.lowest_irreducible(d), d
    for n in range(2, 12):
        ctx = make_tower(n)
        given = make_tower(n, modulus_base=gf2poly.lowest_irreducible(n),
                           modulus_big=gf2poly.lowest_irreducible(6 * n))
        assert moduli(ctx) == moduli(given) and embed_cols(ctx) == embed_cols(given), n

    def no_search(d):
        raise AssertionError(f"searched degree {d}")

    monkeypatch.setattr(gf2poly, "lowest_irreducible", no_search)
    for n in range(2, 17):
        assert make_tower(n).modulus_big == gf2poly.from_exponents(table[6 * n])


@pytest.mark.slow
def test_default_moduli_above_degree_96_are_the_lowest_irreducible_search():
    """Every entry above degree 96, the 6n of each prime 17 <= n <= 127 and
    the primes 97 <= n <= 127, is `lowest_irreducible`'s pick (about 31 s,
    15 s of it for degree 678)."""
    for d, exps in _default_moduli().items():
        if d > 96:
            assert gf2poly.from_exponents(exps) == gf2poly.lowest_irreducible(d), d


def test_towers_serve_every_n_to_16_and_each_prime_to_127(capsys):
    """For every n in -2..200 a tower is built exactly where the rule above
    says, on the table's moduli, whose digest pins them; anywhere else
    `make_tower` raises its one message, and `roots` refuses with one line:
    exit 2 below n = 2, which the constructor refuses, and exit 3 above, where
    the tower's cap is checked before any tower is built."""
    table = _default_moduli()
    built = []
    for n in range(-2, 201):
        if n in SERVED:
            ctx = make_tower(n)
            assert (ctx.modulus_base, ctx.modulus_big) == (
                gf2poly.from_exponents(table[n]), gf2poly.from_exponents(table[6 * n])), n
            built.append(f"{n}:{ctx.modulus_base:x}:{ctx.modulus_big:x}")
            continue
        message = ("n must be at least 2" if n < 2
                   else f"n={n} is outside the construction cap: the {SCOPE}")
        with pytest.raises(ValueError) as exc:
            make_tower(n)
        assert str(exc.value) == message
        code = cli.main(["roots", "--n", str(n), "--which", "eq_3n"])
        out, err = capsys.readouterr()
        assert (code, out) == ((2, "") if n < 2 else (3, "")), n
        assert err == (f"error: {message}\n" if n < 2 else
                       f"infeasible: n={n}: the root counts work in the tower "
                       f"GF(2^{6 * n}), whose {SCOPE}\n"), n
    assert len(built) == 40
    assert hashlib.sha256(" ".join(built).encode()).hexdigest() == (
        "90dc1ae395fc68d1017b9a960811e34dd3ac62f0b8d0ce704903efa853ced5a4")


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
    assert power(tower2, g, q1) == 1


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
    return ctx, {d: fixed_field_basis(ctx, d * n) for d in (1, 2, 3, 6)}


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
    # __init__ builds only the identity columns; the degree tests build sigma^n's, no others
    ctx = make_tower(n)
    assert sorted(ctx._frob_cache) == [0]
    rng = random.Random(n)
    for _ in range(5):
        alpha = random_degree_six(ctx, rng)
        assert len(ctx.minimal_polynomial(alpha)) == 7
    assert sorted(ctx._frob_cache) == [0, n]


@pytest.mark.parametrize("n", [2, 5, 17])
def test_a_fresh_tower_holds_only_the_identity_columns(n):
    """Construction keeps the chain x^(2^i), i <= 6n, on which modulus_big
    passed its Rabin tests, and builds no Frobenius columns but the
    identity's."""
    ctx = make_tower(n)
    m = ctx.big_degree
    assert ctx._frob_cache == {0: [1 << j for j in range(m)]}
    chain = ctx._chain
    assert len(chain) == m + 1 and chain[0] == chain[m] == 2
    assert all(chain[i + 1] == ctx.mul(c, c) for i, c in enumerate(chain[:-1]))


@pytest.mark.parametrize("n", [2, 5])
def test_frobenius_columns_read_the_kept_chain(monkeypatch, n):
    """A new sigma^i's columns start from the chain's x^(2^i): every
    `Tower.square` call comes from `_powers`, 3n - 1 for each new power
    (z^(2j) = (z^j)^2), and none from a squaring loop up to x^(2^i)."""
    ctx = make_tower(n)
    inside, outside, depth = [], [], [0]
    square, powers = Tower.square, Tower._powers

    def counted_square(self, x):
        (inside if depth[0] else outside).append(x)
        return square(self, x)

    def counted_powers(self, z, count):
        depth[0] += 1
        try:
            return powers(self, z, count)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Tower, "square", counted_square)
    monkeypatch.setattr(Tower, "_powers", counted_powers)
    for i in range(ctx.big_degree):
        before = len(inside)
        cols = ctx._frob_cols(i)
        assert len(inside) - before == (3 * n - 1 if i else 0), i
        assert cols[1] == ctx._chain[i]
    assert outside == []
    assert sorted(ctx._frob_cache) == list(range(ctx.big_degree))


def test_degree_six_formula_values():
    # |S| = 2^(6n) - 2^(2n) - 2^(3n) + 2^n
    assert (1 << 30) - (1 << 10) - (1 << 15) + (1 << 5) == 1_073_708_064


def test_frobenius_vec_matches_scalar(tower5):
    rng = np.random.default_rng(6)
    x = rng.integers(0, 1 << 30, 500, dtype=np.int64)
    for i in (0, 1, 5, 10, 15, 29):
        vec = scan.frobenius_vec(tower5, x, i)
        assert [int(v) for v in vec[::97]] == [tower5.frobenius(int(v), i) for v in x[::97]]


def test_byte_tables_refuse_encodings_of_64_bits():
    """At n = 11 encodings have 66 bits, past an int64: the tables of a
    Frobenius power and the normal-basis tables refuse before they build,
    and cache, anything."""
    ctx = make_tower(11)
    x = np.ones(2, dtype=np.int64)
    for build in (lambda: ctx.frob_tables(1), lambda: scan.frobenius_vec(ctx, x, 1),
                  lambda: scan.normal_tables(ctx)):
        with pytest.raises(ValueError, match="^vectorized paths need encodings below 64 bits$"):
            build()
    assert ctx._np_tables == {}


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 11])
def test_to_base_inverts_embed_base_and_refuses_non_members(n):
    """to_base takes embed_base(a) back to a for every base encoding a, and
    raises ValueError on the elements sigma^n moves: every one at n = 2,
    and 200 draws above it. embed_base refuses an a outside 0..q - 1 (its
    span would read -1 as the last entry)."""
    ctx = make_tower(n)
    q = 1 << n
    assert [ctx.to_base(ctx.embed_base(a)) for a in range(q)] == list(range(q))
    for a in (-1, q):
        with pytest.raises(ValueError, match="out of range"):
            ctx.embed_base(a)
    if n == 2:
        elements = range(ctx.order)
    else:
        rng = random.Random(n)
        elements = [rng.getrandbits(ctx.big_degree) for _ in range(200)]
    outside = [x for x in elements if ctx.frobenius(x, n) != x]
    assert len(outside) == (ctx.order - q if n == 2 else 200)
    for x in outside:
        with pytest.raises(ValueError, match="not in the embedded base field"):
            ctx.to_base(x)


def test_minimal_polynomial_refuses_a_coefficient_outside_the_base_field(monkeypatch):
    """A product over a set that is not a whole conjugate orbit has a
    coefficient outside GF(q), and the check on `to_base` refuses it."""
    ctx = make_tower(5)
    alpha = random_degree_six(ctx, random.Random(0))
    monkeypatch.setattr(ctx, "conjugates", lambda x: (x,))
    with pytest.raises(AssertionError, match="escaped the base field"):
        ctx.minimal_polynomial(alpha)


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


@pytest.mark.parametrize("n", range(2, 10))
def test_base_logs_are_a_cyclic_group_table(n):
    """exp lists q - 1 distinct base encodings, each the generator times the
    previous, and the generator is the least one (3 at n = 8 and 7 at n = 9,
    whose default moduli are not primitive); the embedded powers are their
    embeddings, and log inverts them."""
    ctx = make_tower(n)
    assert "base_logs" not in vars(ctx)  # built on first read, not by __init__
    logs = ctx.base_logs
    q = 1 << n
    assert len(logs.exp) == len(set(logs.exp)) == q - 1 and sorted(logs.exp) == list(range(1, q))
    g = logs.exp[1]
    for h in range(2, g):  # each smaller candidate has a smaller order
        x, order = h, 1
        while x != 1:
            x, order = gf2poly.mod(gf2poly.mul(x, h), ctx.modulus_base), order + 1
        assert order < q - 1
    for k, a in enumerate(logs.exp):
        assert gf2poly.mod(gf2poly.mul(a, g), ctx.modulus_base) == logs.exp[(k + 1) % (q - 1)]
        assert logs.embedded[k] == ctx.embed_base(a)
        assert logs.log[logs.embedded[k]] == k
        assert logs.base_log[a] == k
    assert logs.base_log[0] is None
    assert ctx.base_logs is logs


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


def test_root_counts_and_a_cached_sweep_build_no_subfield(monkeypatch):
    """Root counts neither list the subfield nor embed the base field, and a
    fixed-point count read off a cached sweep builds no tower at all."""
    for n in (5, 16):
        ctx = make_tower(n)
        for which in counting.ROOT_EQUATIONS:
            counting.root_count_oracle(ctx, which)
        assert "_embedding" not in vars(ctx), n
    want = counting.fixed_point_oracle(2, 3)  # runs and caches the sweep

    def no_tower(*args, **kwargs):
        raise AssertionError("built a tower")

    monkeypatch.setattr(counting, "make_tower", no_tower)
    assert counting.fixed_point_oracle(2, 3) == want


READERS = {
    "subfield": lambda ctx: ctx.subfield,
    "embed_base": lambda ctx: ctx.embed_base(1),
    "to_base": lambda ctx: ctx.to_base(1),
    "base_logs": lambda ctx: ctx.base_logs,
}


@pytest.mark.parametrize("n", [2, 4, 5])
@pytest.mark.parametrize("reader", READERS)
def test_any_reader_builds_the_subfield_and_embedding(n, reader):
    """One reader builds both lazy parts: the subfield as the sorted span of
    its basis, the embedding as the ascending scan finds it."""
    ctx = make_tower(n)
    assert "_embedding" not in vars(ctx)
    READERS[reader](ctx)
    assert "_embedding" in vars(ctx)
    assert list(ctx.subfield) == subfield_span_array(ctx, n).tolist()
    assert embed_cols(ctx) == embedding_by_scan(ctx)


@pytest.mark.parametrize("n", range(2, 17))
def test_embedding_equals_the_ascending_scan(n):
    """Default moduli: the root found in an n-bit copy of the subfield gives
    the columns of the enc-least root of modulus_base in the big field."""
    ctx = make_tower(n)
    assert embed_cols(ctx) == embedding_by_scan(ctx)


def test_default_roots_table_covers_each_n_a_command_embeds_at():
    """`_ROOTS` holds n = 2..cli.MAX_CODE_N, the n at which `code` and
    `equiv` read the embedding (`census` stops at 7): raising the cap needs
    a new entry."""
    assert list(_default_roots()) == list(range(2, cli.MAX_CODE_N + 1))


@pytest.mark.parametrize("n", sorted(_default_roots()))
def test_default_roots_table_is_the_search(n):
    """Each entry is the search's gamma on the default tower and the
    ascending scan's (about 7 ms for the search at n = 11)."""
    ctx = make_tower(n)
    gamma = _default_roots()[n]
    assert ctx._searched_root() == gamma
    assert embedding_by_scan(ctx)[1] == gamma and ctx.embed_base(2) == gamma


def test_embedding_reads_the_table_only_for_default_moduli(monkeypatch):
    """A default tower of a tabled n reads `_ROOTS` on the first read of its
    embedding, not at construction, and never searches; a tower with a given
    modulus, or of an n past the table, searches."""
    reads = []

    def roots():
        reads.append(1)
        return _default_roots()

    def no_search(f, m):
        raise AssertionError("searched")

    monkeypatch.setattr(gf2tower, "_default_roots", roots)
    monkeypatch.setattr(gf2poly, "field_root", no_search)
    ctx = make_tower(5)
    assert not reads
    assert ctx.embed_base(2) == _default_roots()[5] and reads == [1]
    for other in (make_tower(5, modulus_big=gf2poly.from_exponents([30, 29, 0])),
                  make_tower(4, modulus_base=0b11001), make_tower(12)):
        with pytest.raises(AssertionError, match="^searched$"):
            other.subfield


def random_irreducible(rng, d):
    while True:
        p = (1 << d) | rng.getrandbits(d) | 1
        if gf2poly.is_irreducible(p):
            return p


def trace(ctx, z, d):
    """The trace of z to GF(2^d): z + z^(2^d) + ... + z^(2^(6n-d)), by
    squarings."""
    w = z
    for _ in range(ctx.big_degree // d - 1):
        for _ in range(d):
            z = ctx.mul(z, z)
        w ^= z
    return w


def traces(ctx, d, draws):
    """The traces to GF(2^d) of the first draws of random.Random(0).getrandbits(6n)."""
    rng = random.Random(0)
    return [trace(ctx, rng.getrandbits(ctx.big_degree), d) for _ in range(draws)]


def degree_over_gf2(ctx, x):
    """The least e >= 1 with x^(2^e) = x, by squarings."""
    y, e = ctx.mul(x, x), 1
    while y != x:
        y, e = ctx.mul(y, y), e + 1
    return e


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
        assert embed_cols(ctx) == embedding_by_scan(ctx), (ctx.modulus_base, ctx.modulus_big)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_embedding_passes_a_first_trace_in_a_proper_subfield(n):
    """At composite n, the trace to GF(2^n) of the first draw can lie in a
    proper subfield, and the embedding must pass it to the next model: the
    first random modulus_big that puts it there."""
    rng = random.Random(200 + n)
    for _ in range(300):
        ctx = make_tower(n, modulus_big=random_irreducible(rng, 6 * n))
        first = traces(ctx, n, 1)[0]
        if degree_over_gf2(ctx, first) < n:
            break
    else:
        pytest.fail("no tower whose first trace lies in a proper subfield")
    assert next(ctx._trace_models(n))[0][1] != first
    assert embed_cols(ctx) == embedding_by_scan(ctx)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("big", [None, "24,4,3,1,0", "24,7,2,1,0", "24,9,3,1,0", "24,16,3,1,0"])
def test_trace_models_are_the_traces_of_full_degree(big, k):
    """The models of GF(2^d), d = kn, at n = 4 on the default and the
    benchmark's big moduli: the traces of the first 40 draws in draw order,
    less those of degree below d, each as w^0..w^(d-1), an irreducible
    m_w of degree d with m_w(w) = 0 and the draw whose trace w is. A quarter of the traces to GF(16) lie
    in GF(4), so at d = n some are skipped."""
    ctx = make_tower(4, modulus_big=None if big is None
                     else gf2poly.from_exponents([int(e) for e in big.split(",")]))
    d = k * ctx.n
    full = [w for w in traces(ctx, d, 40) if degree_over_gf2(ctx, w) == d]
    if k == 1:
        assert len(full) < 40
    models = list(itertools.islice(ctx._trace_models(d), len(full)))
    assert [powers[1] for powers, _, _ in models] == full
    for powers, m_w, z in models:
        w = powers[1]
        assert trace(ctx, z, d) == w
        assert powers == [power(ctx, w, j) for j in range(d)]
        assert gf2poly.degree(m_w) == d and gf2poly.is_irreducible(m_w)
        assert eval_poly(ctx, [(m_w >> j) & 1 for j in range(d + 1)], w) == 0


def test_trace_models_give_up_after_a_fixed_number_of_draws(monkeypatch):
    """With a Frobenius that returns its argument every trace to GF(2^n) is
    six equal terms, 0, so no draw yields a model."""
    ctx = make_tower(4)
    monkeypatch.setattr(ctx, "frobenius", lambda x, i: x)
    with pytest.raises(AssertionError, match=r"^64 draws gave no usable model of GF\(2\^4\)"):
        next(ctx._trace_models(4))
