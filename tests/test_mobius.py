import random

import numpy as np
import pytest

from conftest import canonical_orbit_rep
from goppa_orbits.mobius import (
    apply_map,
    compose,
    format_map,
    identity_map,
    infinity,
    inverse,
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
    m = make_map(tower2, 0, 1, 1, 0)
    assert (m.a, m.b, m.c, m.d) == (0, 1, 1, 0)


def test_scalar_normalization_gives_equality(tower2):
    lam = tower2.embed_base(0b10)
    m1 = make_map(tower2, 1, 1, 1, 0)
    m2 = make_map(tower2, lam, lam, lam, 0)
    assert m1 == m2
    z = random_degree_six(tower2, random.Random(0))
    assert apply_map(tower2, m1, z) == apply_map(tower2, m2, z)


def test_apply_conventions(tower2):
    inf = infinity(tower2)
    ident = identity_map(tower2)
    assert apply_map(tower2, ident, inf) == inf
    assert apply_map(tower2, ident, 0x3f) == 0x3f
    m = make_map(tower2, 1, 1, 1, 0)  # z -> (z+1)/z
    assert apply_map(tower2, m, inf) == 1  # a/c
    assert apply_map(tower2, m, 0) == inf  # denominator vanishes


def test_compose_homomorphism(tower2):
    rng = random.Random(1)
    inf = infinity(tower2)
    points = [rng.getrandbits(12) for _ in range(20)] + [inf, 0, 1]
    for _ in range(25):
        f = random_map(tower2, rng)
        g = random_map(tower2, rng)
        fg = compose(tower2, f, g)
        for z in points:
            assert apply_map(tower2, fg, z) == apply_map(
                tower2, f, apply_map(tower2, g, z))


def test_compose_identity_and_inverse(tower2):
    rng = random.Random(2)
    ident = identity_map(tower2)
    for _ in range(20):
        f = random_map(tower2, rng)
        assert compose(tower2, f, ident) == f
        assert compose(tower2, ident, f) == f
        assert compose(tower2, f, inverse(tower2, f)) == ident
        assert compose(tower2, inverse(tower2, f), f) == ident


def test_suborbit_rejects_low_degree(tower5):
    with pytest.raises(ValueError):
        suborbit_representatives(tower5, 1)
    with pytest.raises(ValueError):
        pgl_orbit_array(tower5, 0)


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


def test_orbit_matches_brute_force(tower2):
    """Apply every group element directly; the suborbit walk must agree."""
    sub = tower2.subfield
    maps = []
    for a in sub:
        for b in sub:
            for c in sub:
                for d in sub:
                    if tower2.mul(a, d) ^ tower2.mul(b, c):
                        maps.append(make_map(tower2, a, b, c, d, 0))
    alpha = random_degree_six(tower2, random.Random(7))
    brute = {apply_map(tower2, m, alpha) for m in maps}
    assert brute == set(pgl_orbit_array(tower2, alpha).tolist())


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
