import pytest

from goppa_orbits import make_tower
from goppa_orbits.mobius import pgl_orbit_array


def schoolbook_mul(ctx, x, y):
    """Independent multiplication oracle: convolve coefficient lists, long-divide."""
    m = ctx.big_degree
    xs = [(x >> j) & 1 for j in range(m)]
    ys = [(y >> j) & 1 for j in range(m)]
    prod = [0] * (2 * m)
    for i, xi in enumerate(xs):
        if xi:
            for j, yj in enumerate(ys):
                prod[i + j] ^= yj
    mod = [(ctx.modulus_big >> j) & 1 for j in range(m + 1)]
    for top in range(2 * m - 1, m - 1, -1):
        if prod[top]:
            for j in range(m + 1):
                prod[top - m + j] ^= mod[j]
    return sum(b << j for j, b in enumerate(prod[:m]))


def canonical_orbit_rep(ctx, alpha, group="PGL"):
    """Orbit oracle: the enc-least element of the orbit of alpha under PGL or
    PGammaL, by expanding every orbit element with pgl_orbit_array."""
    if group == "PGL":
        return int(pgl_orbit_array(ctx, alpha).min())
    if group == "PGammaL":
        return min(int(pgl_orbit_array(ctx, ctx.frobenius(alpha, i)).min())
                   for i in range(ctx.big_degree))
    raise ValueError("group must be 'PGL' or 'PGammaL'")


@pytest.fixture(scope="session")
def tower2():
    return make_tower(2)


@pytest.fixture(scope="session")
def tower3():
    return make_tower(3)


@pytest.fixture(scope="session")
def tower5():
    return make_tower(5)
