import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_orbit_rep,
    compose,
    fixed_field_basis,
    inverse,
    make_map_by_inverse,
    random_map_by_inverse,
)
from goppa_orbits.gf2tower import make_tower
from goppa_orbits.mobius import (
    apply_map,
    format_map,
    infinity,
    make_map,
    parse_map,
    pgl_orbit_array,
    random_degree_six,
    random_map,
    suborbit_representatives,
)


def test_make_map_validates(tower2):
    with pytest.raises(ValueError):
        make_map(tower2, 1, 0, 0, 0)  # singular
    with pytest.raises(ValueError):
        make_map(tower2, 2, 0, 0, 1)  # 2 encodes x, not in the embedded subfield
    with pytest.raises(ValueError, match="matrix entries must lie in the embedded base field"):
        make_map(tower2, 1, 0, infinity(tower2), 1)
    m = make_map(tower2, 0, 1, 1, 0)
    assert (m.a, m.b, m.c, m.d) == (0, 1, 1, 0)


@functools.cache
def tower(n):
    return make_tower(n)


def outcome(build, *args):
    """The map `build` returns, or the type and message of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 7), data=st.data())
def test_make_map_on_logs_equals_the_big_field_normalization(n, data):
    """`make_map` and the big-field oracle return equal maps, or raise the
    same message: on embedded entries, with one of them set to zero, on
    matrices made singular by a second row that is a multiple of the first,
    and with one entry outside the base field. `random_map` draws what the oracle's
    draws give, leaving the generator in the same state."""
    ctx = tower(n)
    base = st.integers(0, (1 << n) - 1).map(ctx.embed_base)
    entries = list(data.draw(st.tuples(base, base, base, base)))
    kind = data.draw(st.sampled_from(("as drawn", "a zero", "singular", "outside")))
    if kind == "a zero":
        entries[data.draw(st.integers(0, 3))] = 0
    elif kind == "singular":
        lam = data.draw(base)
        entries[2:] = (ctx.mul(lam, e) for e in entries[:2])
    elif kind == "outside":
        entries[data.draw(st.integers(0, 3))] = data.draw(st.integers(0, ctx.order - 1))
    a, b, c, d = entries
    frob = data.draw(st.integers(-100, 100))
    got = outcome(make_map, ctx, a, b, c, d, frob)
    assert got == outcome(make_map_by_inverse, ctx, a, b, c, d, frob)
    seed = data.draw(st.integers(0, 1 << 32))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert random_map(ctx, rng) == random_map_by_inverse(ctx, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()


def test_scalar_normalization_gives_equality(tower2):
    lam = tower2.embed_base(0b10)
    m1 = make_map(tower2, 1, 1, 1, 0)
    m2 = make_map(tower2, lam, lam, lam, 0)
    assert m1 == m2
    z = random_degree_six(tower2, random.Random(0))
    assert apply_map(tower2, m1, z) == apply_map(tower2, m2, z)


def test_apply_conventions(tower2):
    inf = infinity(tower2)
    ident = make_map(tower2, 1, 0, 0, 1)
    assert apply_map(tower2, ident, inf) == inf
    assert apply_map(tower2, ident, 0x3f) == 0x3f
    m = make_map(tower2, 1, 1, 1, 0)  # z -> (z+1)/z
    assert apply_map(tower2, m, inf) == 1  # a/c
    assert apply_map(tower2, m, 0) == inf  # denominator vanishes


SEEDS = st.integers(0, (1 << 32) - 1)


def _maps(ctx, *seeds):
    return [random_map(ctx, random.Random(s)) for s in seeds]


# apply_map is a group action: it turns the composition oracle into composition.
# n = 5, because the Frobenius powers on GF(4) are only the identity and squaring
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=SEEDS, g=SEEDS, z=st.integers(0, 1 << 30))
def test_compose_homomorphism(tower5, f, g, z):
    f, g = _maps(tower5, f, g)
    fg = compose(tower5, f, g)
    for pt in (z, 0, 1, infinity(tower5)):
        assert apply_map(tower5, fg, pt) == apply_map(tower5, f, apply_map(tower5, g, pt))
        assert apply_map(tower5, inverse(tower5, f), apply_map(tower5, f, pt)) == pt


# the group laws of the oracle, on normalized maps
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=SEEDS, g=SEEDS, h=SEEDS)
def test_compose_identity_and_inverse(tower5, f, g, h):
    f, g, h = _maps(tower5, f, g, h)
    ident = make_map(tower5, 1, 0, 0, 1)
    assert compose(tower5, f, ident) == f == compose(tower5, ident, f)
    assert compose(tower5, f, inverse(tower5, f)) == ident
    assert compose(tower5, inverse(tower5, f), f) == ident
    assert (compose(tower5, compose(tower5, f, g), h)
            == compose(tower5, f, compose(tower5, g, h)))


def test_suborbit_rejects_low_degree(tower5):
    with pytest.raises(ValueError):
        suborbit_representatives(tower5, 1)
    with pytest.raises(ValueError):
        pgl_orbit_array(tower5, 0)


def test_degree_check_reads_only_the_sigma_n_tables():
    """The scalar degree test walks the sigma^n columns; it builds no
    Frobenius byte table, and still rejects elements of degree 2 and 3."""
    ctx = make_tower(5)
    alpha = random_degree_six(ctx, random.Random(9))
    suborbit_representatives(ctx, alpha)
    assert [k for k in ctx._np_tables if k[0] == "frob"] == []
    assert sorted(ctx._frob_cache) == [0, 5]
    for bits in (10, 15):  # degree 2 and degree 3 over GF(2^5)
        x = next(b for b in fixed_field_basis(ctx, bits) if ctx.frobenius(b, 5) != b)
        with pytest.raises(ValueError, match="degree 6"):
            suborbit_representatives(ctx, x)
        with pytest.raises(ValueError, match="degree 6"):  # one bad row in an array
            suborbit_representatives(ctx, np.array([alpha, x], dtype=np.int64))


def test_pgl_orbit_size_and_disjoint_suborbits(tower5):
    rng = random.Random(4)
    alpha = random_degree_six(tower5, rng)
    arr = pgl_orbit_array(tower5, alpha)
    assert arr.size == (1 << 15) - (1 << 5) == 32736
    assert np.unique(arr).size == 32736  # the 33 suborbits are disjoint
    reps = suborbit_representatives(tower5, alpha)
    assert len(reps) == 33


def test_orbit_invariant_under_member_replacement(tower2):
    rng = random.Random(6)
    alpha = random_degree_six(tower2, rng)
    base = np.sort(pgl_orbit_array(tower2, alpha))
    for rep in suborbit_representatives(tower2, alpha):
        again = np.sort(pgl_orbit_array(tower2, rep))
        assert np.array_equal(base, again)


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_matches_brute_force(n):
    """Apply every group element directly; the suborbit walk must agree."""
    ctx = make_tower(n)
    sub = ctx.subfield
    maps = []
    for a in sub:
        for b in sub:
            for c in sub:
                for d in sub:
                    if ctx.mul(a, d) ^ ctx.mul(b, c):
                        maps.append(make_map(ctx, a, b, c, d, 0))
    assert len(maps) == (1 << n) * ((1 << 2 * n) - 1) * ((1 << n) - 1)  # |GL(2, 2^n)|
    alpha = random_degree_six(ctx, random.Random(7))
    brute = {apply_map(ctx, m, alpha) for m in maps}
    assert brute == set(pgl_orbit_array(ctx, alpha).tolist())


def test_canonical_rep_constant_on_orbits(tower5):
    rng = random.Random(8)
    alpha = random_degree_six(tower5, rng)
    rep = canonical_orbit_rep(tower5, alpha, "PGL")
    assert canonical_orbit_rep(tower5, rep, "PGL") == rep
    for _ in range(5):
        m = random_map(tower5, rng)
        linear = make_map(tower5, m.a, m.b, m.c, m.d, 0)
        beta = apply_map(tower5, linear, alpha)
        assert canonical_orbit_rep(tower5, beta, "PGL") == rep
        # a semi-linear image stays in the same semi-linear class
        gamma = apply_map(tower5, m, alpha)
        assert (canonical_orbit_rep(tower5, gamma, "PGammaL")
                == canonical_orbit_rep(tower5, alpha, "PGammaL"))
    with pytest.raises(ValueError):
        canonical_orbit_rep(tower5, alpha, "AGL")


def test_pgammal_rep_frobenius_invariant(tower5):
    rng = random.Random(9)
    alpha = random_degree_six(tower5, rng)
    rep = canonical_orbit_rep(tower5, alpha, "PGammaL")
    for i in (1, 7, 15, 29):
        assert canonical_orbit_rep(
            tower5, tower5.frobenius(alpha, i), "PGammaL") == rep
    assert rep <= canonical_orbit_rep(tower5, alpha, "PGL")


def test_map_serialization_roundtrip(tower5):
    rng = random.Random(11)
    for _ in range(20):
        m = random_map(tower5, rng)
        assert parse_map(tower5, format_map(tower5, m)) == m
    m = parse_map(tower5, "1,1,1,0;7")
    assert (m.a, m.b, m.c, m.d, m.frob) == (1, 1, 1, 0, 7)
    with pytest.raises(ValueError):
        parse_map(tower5, "1,1,1;0")
    with pytest.raises(ValueError):
        parse_map(tower5, "1,1,1,zz;0")


def test_random_map_deterministic(tower5):
    assert random_map(tower5, random.Random(42)) == random_map(
        tower5, random.Random(42))
