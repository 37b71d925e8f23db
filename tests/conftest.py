import numpy as np
import pytest

from goppa_orbits import make_tower
from goppa_orbits.counting import RootCounts
from goppa_orbits.gf2tower import solve_affine_linearized
from goppa_orbits.mobius import pgl_orbit_array

# (k, rhs) of each linear root equation x^(2^k) + x = rhs, by n
LINEAR_EQUATIONS = {
    "eq_3n": lambda n: (3 * n, 1),
    "eq_2n_affine": lambda n: (2 * n, 1),
    "eq_deg8": lambda n: (3, 1),
    "fixed_field_64": lambda n: (6, 0),
}


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


def span(basis):
    """All XOR combinations of the basis vectors, as a sorted int64 array."""
    arr = np.zeros(1, dtype=np.int64)
    for b in basis:
        arr = np.concatenate([arr, arr ^ np.int64(b)])
    arr.sort()
    return arr


def subfield_span_array(ctx, bits):
    """The subfield GF(2^bits) of the big field as a sorted int64 array."""
    return span(ctx._fixed_field_basis(bits))


def coset_array(coset):
    """Every solution of a `solve_affine_linearized` coset, sorted; empty for None."""
    if coset is None:
        return np.empty(0, dtype=np.int64)
    particular, kernel = coset
    return np.sort(span(kernel) ^ np.int64(particular))


def enumerated_root_counts(ctx, which):
    """Root-count oracle by listing: every root of a linear equation in the
    whole field, split by subfield with frobenius_vec (6n <= 63)."""
    n = ctx.n
    k, rhs = LINEAR_EQUATIONS[which](n)
    sols = coset_array(solve_affine_linearized(ctx._frob_plus_id_cols(k), rhs))
    in2 = ctx.frobenius_vec(sols, 2 * n) == sols
    in3 = ctx.frobenius_vec(sols, 3 * n) == sols
    return RootCounts(which, int(sols.size), int((~in2 & ~in3).sum()),
                      int(in2.sum()), int(in3.sum()))


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
