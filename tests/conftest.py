"""Shared fixtures, and the independent oracles the tests compare the package
against: they live here, not in `src/`, because no command reaches them."""

import importlib.util
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from goppa_orbits import counting, gf2poly, make_tower
from goppa_orbits.codes import BinaryCode, nullspace, rref
from goppa_orbits.counting import RootCounts
from goppa_orbits.gf2tower import solve_affine_linearized
from goppa_orbits.mobius import (
    apply_map,
    infinity,
    make_map,
    pgl_orbit_array,
    suborbit_representatives,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (k, rhs) of each linear root equation x^(2^k) + x = rhs, by n
LINEAR_EQUATIONS = {
    "eq_3n": lambda n: (3 * n, 1),
    "eq_2n_affine": lambda n: (2 * n, 1),
    "eq_deg8": lambda n: (3, 1),
    "fixed_field_64": lambda n: (6, 0),
}


def load_bench_run(monkeypatch):
    """`bench/run.py` as a module, with `bench/` on the path for its imports."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run


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


def is_irreducible_two_pass(p):
    """The irreducibility oracle: x^(2^d) = x mod p by d squarings, then a
    fresh chain of d/q squarings for the gcd of each prime factor q of d."""
    def pow2_frobenius(k):
        r = gf2poly.mod(2, p)
        for _ in range(k):
            r = gf2poly.mod(gf2poly.mul(r, r), p)
        return r

    d = gf2poly.degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not p & 1 or pow2_frobenius(d) != 2:
        return False
    primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    return all(gf2poly.gcd(pow2_frobenius(d // q) ^ 2, p) == 1 for q in primes)


def lowest_irreducible_by_sort(d):
    """The default-modulus oracle: for each odd interior weight, list and
    sort every interior mask, then take the first irreducible (d >= 2)."""
    for w in range(1, d, 2):
        for mid in sorted(sum(1 << i for i in comb) for comb in combinations(range(1, d), w)):
            if gf2poly.is_irreducible((1 << d) | mid | 1):
                return (1 << d) | mid | 1
    raise AssertionError(f"no irreducible of degree {d} found")


def span(basis):
    """All XOR combinations of the basis vectors, as a sorted int64 array."""
    arr = np.zeros(1, dtype=np.int64)
    for b in basis:
        arr = np.concatenate([arr, arr ^ np.int64(b)])
    arr.sort()
    return arr


def eval_poly(ctx, coeffs, x):
    """A big-field-coefficient polynomial (ascending) at x, by Horner."""
    r = 0
    for c in reversed(coeffs):
        r = ctx.mul(r, x) ^ c
    return r


def embedding_by_scan(ctx):
    """The embedding-column oracle: powers of the enc-least root of
    modulus_base, found by scanning the subfield in ascending order."""
    n = ctx.n
    base_coeffs = [(ctx.modulus_base >> k) & 1 for k in range(n + 1)]
    gamma = next(v for v in ctx.subfield if v and eval_poly(ctx, base_coeffs, v) == 0)
    cols = [1]
    for _ in range(n - 1):
        cols.append(ctx.mul(cols[-1], gamma))
    return cols


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


# ------------------------------------------------------------------- orbits


def canonical_orbit_rep(ctx, alpha, group="PGL"):
    """Orbit oracle: the enc-least element of the orbit of alpha under PGL or
    PGammaL, by expanding every orbit element with pgl_orbit_array."""
    if group == "PGL":
        return int(pgl_orbit_array(ctx, alpha).min())
    if group == "PGammaL":
        return min(int(pgl_orbit_array(ctx, ctx.frobenius(alpha, i)).min())
                   for i in range(ctx.big_degree))
    raise ValueError("group must be 'PGL' or 'PGammaL'")


def fixed_orbit_representatives(ctx, d, limit=None):
    """Census representatives of the orbits fixed setwise by the d-th
    Frobenius power, in ascending class rank."""
    d_red = d % ctx.big_degree
    return [r.rep for r in counting._sweep(ctx).records
            if d_red == 0 or (r.fixed_mask >> d_red) & 1][:limit]


def class_equation_oracle(ctx, alpha, d):
    """Cycle type of sigma^d on the affine suborbits, element by element.

    Independent of the class index: the owner of each orbit element is the
    representative whose block of pgl_orbit_array holds it (the array runs
    over e, then the 2^n + 1 representatives, then f).
    """
    q = 1 << ctx.n
    orbit = pgl_orbit_array(ctx, alpha).tolist()
    owner = {y: (p // q) % (q + 1) for p, y in enumerate(orbit)}
    if ctx.frobenius(alpha, d) not in owner:
        raise ValueError("the Galois power does not fix the orbit of alpha")
    perm = [owner[ctx.frobenius(rep, d)]
            for rep in suborbit_representatives(ctx, alpha).tolist()]
    return tuple(sorted(len(cycle) for cycle in counting.permutation_cycles(perm)))


# ------------------------------------------------------------- map group law


def compose(ctx, f, g):
    """The map acting as f after g."""
    ga, gb, gc, gd = (ctx.frobenius(e, f.frob) for e in (g.a, g.b, g.c, g.d))
    return make_map(
        ctx,
        ctx.mul(f.a, ga) ^ ctx.mul(f.b, gc),
        ctx.mul(f.a, gb) ^ ctx.mul(f.b, gd),
        ctx.mul(f.c, ga) ^ ctx.mul(f.d, gc),
        ctx.mul(f.c, gb) ^ ctx.mul(f.d, gd),
        f.frob + g.frob,
    )


def inverse(ctx, m):
    """Group inverse: conjugate the adjugate matrix back by the Frobenius power."""
    k = -m.frob % ctx.big_degree
    a, b, c, d = (ctx.frobenius(e, k) for e in (m.d, m.b, m.c, m.a))
    return make_map(ctx, a, b, c, d, k)


def induced_permutation_by_apply_map(ctx, m, support):
    """Support-permutation oracle in the big field: each image by `apply_map`
    (a Frobenius power, products and an inverse in GF(2^(6n)))."""
    position = {pt: j for j, pt in enumerate(support)}
    try:
        return tuple(position[apply_map(ctx, m, pt)] for pt in support)
    except KeyError as exc:
        raise ValueError("map does not preserve the support set") from exc


# --------------------------------------------- the inversion and alternant routes


def stacked_columns(ctx, rows):
    """Parity columns of a big-field matrix: the bits of column j's entries,
    row i at bits 6n*i and up."""
    m = ctx.big_degree
    return [sum(row[j] << (i * m) for i, row in enumerate(rows))
            for j in range(len(rows[0]))]


def inversion_columns(ctx, alpha, support):
    """The parity columns of the inversion route: 1/(alpha - a) in
    GF(2^(6n)) for each finite point, 0 at infinity."""
    inf = infinity(ctx)
    return [0 if a == inf else ctx.inv(alpha ^ a) for a in support]


def code_from_generator(gen_rows, length):
    """The code spanned by gen_rows, both bases reduced from scratch."""
    gen = rref(gen_rows)
    return BinaryCode(length, gen, rref(list(nullspace(gen, length))))


def multipliers(ctx, g, pts):
    """The column multipliers 1/g(a_j) of the alternant form of a Goppa code,
    over projective points: g at infinity is its leading coefficient."""
    inf = infinity(ctx)
    return ctx.inv_batch([g[-1] if p == inf else eval_poly(ctx, g, p) for p in pts])


def alternant_parity(ctx, v, support, r):
    """The r x m big-field matrix with rows v_j * a_j^i, i = 0..r-1, over a
    projective support: the infinity column, at any position, is zero except
    for v_j in the last row."""
    inf = infinity(ctx)
    rows = [[0] * len(support) for _ in range(r)]
    for j, (vj, pt) in enumerate(zip(v, support)):
        if pt == inf:
            rows[r - 1][j] = vj
        else:
            acc = vj
            for i in range(r):
                rows[i][j] = acc
                acc = ctx.mul(acc, pt)
    return rows


def transform_polynomial(ctx, g, m):
    """Image of g under the semi-linear substitution.

    With tg the coefficient-wise Frobenius image of g and r its degree, the
    result is sum_k tg_k (d x + b)^k (c x + a)^(r - k), whose roots are the
    map images of the roots of g. Requires tg(d/c) nonzero when c is nonzero
    (signs collapse in characteristic 2).
    """
    r = len(g) - 1
    if r < 1 or g[-1] == 0:
        raise ValueError("polynomial must have positive degree")
    tg = [ctx.frobenius(ck, m.frob) for ck in g]
    if m.c and eval_poly(ctx, tg, ctx.mul(m.d, ctx.inv(m.c))) == 0:
        raise ValueError("substitution pole coincides with a root of the polynomial")

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    out[i + j] ^= ctx.mul(pi, qj)
        return out

    acc = [0] * (r + 1)
    for k, tgk in enumerate(tg):
        if tgk == 0:
            continue
        term = [1]
        for _ in range(k):
            term = pmul(term, [m.b, m.d])
        for _ in range(r - k):
            term = pmul(term, [m.a, m.c])
        for i, t in enumerate(term):
            acc[i] ^= ctx.mul(tgk, t)
    if acc[-1] == 0:
        raise AssertionError("transformed polynomial dropped degree")
    return tuple(acc)


@pytest.fixture(scope="session")
def tower2():
    return make_tower(2)


@pytest.fixture(scope="session")
def tower3():
    return make_tower(3)


@pytest.fixture(scope="session")
def tower5():
    return make_tower(5)
