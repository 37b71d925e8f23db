"""Shared fixtures, and the independent oracles the tests compare the package
against: they live here, not in `src/`, because no command reaches them."""

import functools
import hashlib
import importlib.util
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from goppa_orbits import counting, gf2poly, make_tower, scan
from goppa_orbits.codes import BinaryCode, nullspace, rref
from goppa_orbits.counting import RootCounts
from goppa_orbits.gf2tower import Tower, _ColumnSolver, solve_affine_linearized
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


class ReferenceElimination:
    """The elimination oracle: int-bitmask vectors reduced at their least set
    bits, each pivot kept with the combination of inputs (bit j = input j) it
    came from, inputs walked last to first; inputs that reduce to zero give
    the kernel, by ascending least bit."""

    def __init__(self, vecs):
        self.pivots = {}  # least bit -> (vec, combo)
        kernel = []
        for j in range(len(vecs) - 1, -1, -1):
            vec, combo = vecs[j], 1 << j
            while vec:
                low = (vec & -vec).bit_length() - 1
                hit = self.pivots.get(low)
                if hit is None:
                    self.pivots[low] = (vec, combo)
                    break
                vec ^= hit[0]
                combo ^= hit[1]
            else:
                kernel.append(combo)
        self.kernel_basis = tuple(reversed(kernel))

    def solve(self, target):
        """A combination of the inputs summing to target, or None outside the span."""
        x = 0
        while target:
            hit = self.pivots.get((target & -target).bit_length() - 1)
            if hit is None:
                return None
            target ^= hit[0]
            x ^= hit[1]
        return x

    def rref(self):
        """The span's reduced row echelon basis, by ascending pivot:
        back-substituted from the highest pivot down."""
        reduced = {}
        above = 0
        for low in sorted(self.pivots, reverse=True):
            vec = self.pivots[low][0]
            hits = vec & above
            while hits:
                bit = hits & -hits
                vec ^= reduced[bit.bit_length() - 1]
                hits ^= bit
            reduced[low] = vec
            above |= 1 << low
        return tuple(reversed(reduced.values()))


def span(basis):
    """All XOR combinations of the basis vectors, as a sorted int64 array."""
    arr = np.zeros(1, dtype=np.int64)
    for b in basis:
        arr = np.concatenate([arr, arr ^ np.int64(b)])
    arr.sort()
    return arr


def power(ctx, x, e):
    """x^e in the big field for e >= 0, by square-and-multiply."""
    r = 1
    while e:
        if e & 1:
            r = ctx.mul(r, x)
        x = ctx.mul(x, x)
        e >>= 1
    return r


def eval_poly(ctx, coeffs, x):
    """A big-field-coefficient polynomial (ascending) at x, by Horner."""
    r = 0
    for c in reversed(coeffs):
        r = ctx.mul(r, x) ^ c
    return r


def embed_cols(ctx):
    """gamma^0..gamma^(n-1), the embedding's columns, read through
    `embed_base` on the base encodings 2^i."""
    return [ctx.embed_base(1 << i) for i in range(ctx.n)]


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


@functools.lru_cache(maxsize=None)
def base_quotients(n, modulus_base):
    """[a * q + c]: c / a in GF(q), q = 2^n, from gf2poly products by
    inverses (0 where a = 0)."""
    q = 1 << n
    inv = [0] + [gf2poly.inverse(a, modulus_base) for a in range(1, q)]
    return np.array([gf2poly.mod(gf2poly.mul(c, inv[a]), modulus_base)
                     for a in range(q) for c in range(q)], dtype=np.int64)


def class_ranks_by_coordinate(ctx, v):
    """Class rank of each quotient coordinate vector (nonzero), coordinate by
    coordinate: (q^l - 1)/(q - 1) for the leading index l, plus each lower
    coordinate c_j divided by the leading one a, at bits [jn, jn + n). One
    gather per coordinate from a q x q quotient table."""
    n, q = ctx.n, 1 << ctx.n
    div = base_quotients(n, ctx.modulus_base)
    coords = [(v >> j * n) & (q - 1) for j in range(5)]
    lead = np.zeros_like(v)
    for j in range(1, 5):
        lead = np.where(coords[j] != 0, j, lead)
    a = np.choose(lead, coords)
    rank = ((q ** lead) - 1) // (q - 1)
    for j in range(4):
        rank += np.where(j < lead, div[a * q + coords[j]] << j * n, 0)
    return rank


@functools.lru_cache(maxsize=None)
def quotient_coordinate_tables(ctx):
    """Byte tables of x -> the coordinates of x in the GF(2)-basis
    gamma_k * theta^j (gamma_k = embed_base(2^k), theta = x, by
    square-and-multiply), coordinate 0 dropped: bits [(j - 1)n, jn) hold
    coordinate j."""
    n = ctx.n
    gammas = [ctx.embed_base(1 << k) for k in range(n)]
    coords = _ColumnSolver([ctx.mul(g, power(ctx, 2, j)) for j in range(6) for g in gammas])
    return ctx._byte_tables([coords.solve(1 << j) >> n for j in range(ctx.big_degree)])


def class_coordinates(ctx, x):
    """The quotient coordinates of each element, coordinate 0 dropped: the
    class coordinates `scan._cross_ratio` reads, up to a scalar in
    GF(q)*, on which the cross-ratio does not depend."""
    return Tower.apply_tables(quotient_coordinate_tables(ctx), x)


def class_elements(ctx, ranks):
    """One element of the affine class {e*beta + f : e in GF(q)*, f in GF(q)}
    of each given rank, q = 2^n: the one whose coordinate 0 is 0, read off
    the census's `elements` table (`scan._census_tables`)."""
    return Tower.apply_tables(scan._census_tables(ctx)[0],
                              scan._class_coordinates(ctx.n, ranks))


def class_ranks(ctx, x):
    """The class-rank oracle: the rank of the affine class of each element
    (outside GF(q)) in P^4(GF(q)), from its quotient coordinates."""
    return class_ranks_by_coordinate(ctx, class_coordinates(ctx, x))


def fixed_field_basis(ctx, bits):
    """A GF(2)-basis of the subfield GF(2^bits): the kernel of x^(2^bits) + x."""
    if ctx.big_degree % bits:
        raise ValueError("not a subfield of the tower's big field")
    basis = _ColumnSolver(ctx._frob_plus_id_cols(bits)).kernel_basis
    assert len(basis) == bits, "subfield dimension mismatch"
    return basis


def subfield_span_array(ctx, bits):
    """The subfield GF(2^bits) of the big field as a sorted int64 array."""
    return span(fixed_field_basis(ctx, bits))


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
    in2 = scan.frobenius_vec(ctx, sols, 2 * n) == sols
    in3 = scan.frobenius_vec(ctx, sols, 3 * n) == sols
    return RootCounts(which, int(sols.size), int((~in2 & ~in3).sum()),
                      int(in2.sum()), int(in3.sum()))


# P over GF(2) whose roots are an equation's, n -> P; each is squarefree
GCD_POLYNOMIALS = {
    "eq_41": lambda n: (1 << (1 << 2 * n) + 1) | 0b11,  # x^(2^(2n)+1) + x + 1
    "eq_deg8": lambda n: 0x103,  # x^8 + x + 1, P' = 1
    "fixed_field_64": lambda n: (1 << 64) | 0b10,  # x^64 + x, P' = 1
}


@functools.lru_cache(maxsize=None)
def root_counts_by_gcd(which, n):
    """Root tallies of `which` from GF(2) polynomial gcds, the oracle for
    the rank route; they depend on n only.

    P (`GCD_POLYNOMIALS`) is coprime to its derivative, the odd-degree
    terms of P each lowered by one, so it is squarefree and has exactly
    deg gcd(P, x^(2^k) + x) roots in GF(2^k). One chain of 6n squarings
    mod P gives x^(2^k) for k = n, 2n, 3n and 6n. eq_41's P has degree
    2^(2n) + 1, so it takes 1.6 s at n = 8; the two of degree 8 and 64
    take under a millisecond at n = 127.
    """
    p = GCD_POLYNOMIALS[which](n)
    derivative = (p >> 1) & int("01" * p.bit_length(), 2)
    assert gf2poly.gcd(p, derivative) == 1, "P is not squarefree"
    roots = {}
    r = 0b10
    for k in range(1, 6 * n + 1):
        r = gf2poly.mod(gf2poly.square(r), p)
        if k % n == 0:
            roots[k // n] = gf2poly.degree(gf2poly.gcd(p, r ^ 0b10))
    return RootCounts(which, roots[6], roots[6] - roots[2] - roots[3] + roots[1],
                      roots[2], roots[3])


# -------------------------------------------------------- fixed-point counts


def paper_fixed_points(n):
    """The paper's fixed-point counts at a prime n > 3, keyed by the order
    6n / gcd(d, 6n) of the Galois element sigma^d: the table that
    `counting.fixed_points_for_power` must reduce to there."""
    return {1: (1 << 3 * n) + (1 << n) - 1, 2: (1 << 2 * n) - 1, 3: (1 << n) - 2,
            6: 0, n: 9, 2 * n: 3, 3 * n: 0, 6 * n: 0}


def divisors(k):
    """The divisors of k >= 1, ascending."""
    low = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted({*low, *(k // d for d in low)})


def moebius(k):
    """The Moebius function: 0 unless k is squarefree, else (-1)^(number of
    its prime factors)."""
    primes = gf2poly._prime_factors(k)
    return 0 if any(k % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def orbit_counts_by_moebius(n):
    """N(t), the number of semi-linear orbits holding t linear orbits, as
    the census's (t, N(t)) pairs with N(t) > 0, ascending, from the closed
    form by Moebius inversion: sigma^d fixes the t linear orbits of an
    orbit exactly when t | d, so sum_{t | d} t N(t) = L(d) and
    t N(t) = sum_{d | t} moebius(t/d) L(d). An error in any one term of L
    shows as a remainder or a negative count, which fails an assertion."""
    divs = divisors(6 * n)
    counts = []
    for t in divs:
        weighted = sum(moebius(t // d) * counting.fixed_points_for_power(n, d)
                       for d in divs if t % d == 0)
        count, rest = divmod(weighted, t)
        assert rest == 0 and count >= 0, f"N({t}) = {weighted}/{t} at n = {n}"
        if count:
            counts.append((t, count))
    return tuple(counts)


def primitive_modulus(d):
    """The least primitive polynomial of degree d over GF(2)."""
    p = (1 << d) | 1
    while not (gf2poly.is_irreducible(p) and gf2poly.is_generator(p)):
        p += 2
    return p


class TwistedNorm:
    """The twisted-norm test of mu in GF(2^d): whether B B^s B^(s^2) ...
    B^(s^5) is scalar, with B = [[0, mu], [1 + mu, mu]] and s the 2^n-power
    applied to each entry. mu is the cross-ratio of a degree-6 element
    exactly when mu is not 0 or 1 and the product is scalar (Lang's
    theorem), so for d | 6n `count` is L(d), the number of linear orbits
    fixed by sigma^d. Shares no code with `counting` or the scan: the field
    is GF(2)[y]/(m) for the least primitive m of degree d (`gf2poly`), its
    elements held in numpy arrays.
    """

    def __init__(self, n, d):
        self.d, self.m = d, primitive_modulus(d)
        self.top = (1 << d) - 1
        self.square, self.s = self._frobenius(1), self._frobenius(n)
        self._reduce = self._linear([gf2poly.mod(1 << d + i, self.m) for i in range(d - 1)])

    @staticmethod
    def _linear(images):
        """The GF(2)-linear map sending y^i to images[i], a byte at a time."""
        byte = np.arange(256)
        tables = []
        for j in range(0, len(images), 8):
            table = np.zeros(256, np.int64)
            for i, image in enumerate(images[j:j + 8]):
                table[byte >> i & 1 == 1] ^= image
            tables.append(table)
        return lambda v: functools.reduce(
            np.bitwise_xor, [table[v >> 8 * j & 255] for j, table in enumerate(tables)])

    def _frobenius(self, e):
        """x -> x^(2^e)."""
        images = []
        for i in range(self.d):
            x = 1 << i
            for _ in range(e):
                x = gf2poly.mod(gf2poly.square(x), self.m)
            images.append(x)
        return self._linear(images)

    def mul(self, a, b):
        product = functools.reduce(
            np.bitwise_xor, [(a << i) & -(b >> i & 1) for i in range(self.d)])
        return product & self.top ^ self._reduce(product >> self.d)

    def member(self, mu):
        """Whether the product is scalar at each mu, 0 and 1 included."""
        zero, one = np.zeros_like(mu), np.ones_like(mu)

        def b(c):
            """The entries of B at mu = c, row by row."""
            return zero, c, one ^ c, c

        product, conjugate = b(mu), mu
        for _ in range(5):
            conjugate = self.s(conjugate)
            (w, x, y, z), (b00, b01, b10, b11) = product, b(conjugate)
            product = (self.mul(w, b00) ^ self.mul(x, b10), self.mul(w, b01) ^ self.mul(x, b11),
                       self.mul(y, b00) ^ self.mul(z, b10), self.mul(y, b01) ^ self.mul(z, b11))
        w, x, y, z = product
        return (x == 0) & (y == 0) & (w == z)

    def count(self, chunk=1 << 18):
        """The members outside {0, 1}. Squaring permutes them, since it
        commutes with s and keeps a scalar matrix scalar, so each mu = y^k
        is tested once per cyclotomic coset {k 2^r mod 2^d - 1}, whose
        members are the rotations of k's d bits: at its least member,
        counted with the size of the coset."""
        d, top = self.d, self.top

        def rotate(k, r):
            return (k << r | k >> d - r) & top

        count = 0
        for start in range(1, top, chunk):  # k = 0 is mu = 1
            k = np.arange(start, min(start + chunk, top), dtype=np.int64)
            for r in range(1, d):
                k = k[k <= rotate(k, r)]
            size = np.full(k.size, d)
            for r in range(d - 1, 0, -1):
                size[rotate(k, r) == k] = r
            mu = np.ones_like(k)  # y^k, from k's top bit down
            for bit in range(d - 1, -1, -1):
                mu = self.square(mu)
                up = mu << 1
                mu = np.where(k >> bit & 1, up ^ (up >> d) * self.m, mu)
            count += int(size[self.member(mu)].sum())
        return count


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


def cross_ratio_oracle(ctx, alphas):
    """The census's cross-ratio by the scalar kernel: the q-powers a_i by
    `Tower.frobenius`, mu = (a0 + a2)(a1 + a3) / ((a0 + a3)(a1 + a2)) by
    `Tower.mul` and one `Tower.inv`, 0 where the denominator is 0, then
    its coordinates in the normal basis of `scan.normal_tables`."""
    mus = []
    for alpha in alphas:
        a0, a1, a2, a3 = (ctx.frobenius(alpha, i * ctx.n) for i in range(4))
        den = ctx.mul(a0 ^ a3, a1 ^ a2)
        mus.append(ctx.mul(ctx.mul(a0 ^ a2, a1 ^ a3), ctx.inv(den)) if den else 0)
    return Tower.apply_tables(scan.normal_tables(ctx), np.array(mus, dtype=np.int64))


def least_rotation_by_five_passes(m, mu):
    """The least of the m rotations of each m-bit value, one rotation at a
    time in place: shift right, shift left, mask, or, minimum. The reference
    for `scan._canonical`, which reads the rotations off a doubled word."""
    mask = (1 << m) - 1
    least, image, top = mu.copy(), mu.copy(), np.empty_like(mu)
    for _ in range(1, m):
        np.right_shift(image, m - 1, out=top)
        image <<= 1
        image &= mask
        image |= top
        np.minimum(least, image, out=least)
    return least


def low_field_class_elements(ctx):
    """One element of each of the q + 2 affine classes inside GF(q^2) and
    GF(q^3) outside GF(q), q = 2^n: a basis element b of GF(q^2) outside
    GF(q), and for one b' of GF(q^3) outside GF(q), whose powers 1, b', b'^2
    are a GF(q)-basis, b' and b'^2 + a b' for each a in GF(q)."""
    n = ctx.n
    b2, b3 = (next(b for b in fixed_field_basis(ctx, j * n) if ctx.frobenius(b, n) != b)
              for j in (2, 3))
    square = ctx.mul(b3, b3)
    return [b2, b3] + [square ^ ctx.mul(a, b3) for a in ctx.subfield]


def fixed_orbit_representatives(ctx, d, limit=None):
    """Census representatives of the orbits fixed setwise by the d-th
    Frobenius power, in ascending class rank: those whose t divides d."""
    census = counting._sweep(ctx.n, ctx.modulus_base, ctx.modulus_big)
    return [rep for rep, t in census.records if d % t == 0][:limit]


def records_digest(ctx, records):
    """sha256 of the census records as [rep, t, mask] lists, where bit p of
    the mask is set iff t divides p, 0 < p < 6n: the form in which the
    recorded digests were taken."""
    m = ctx.big_degree
    rows = [[rep, t, sum(1 << p for p in range(t, m, t))] for rep, t in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


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
    """The code spanned by gen_rows, its generator reduced from scratch."""
    return BinaryCode(length, rref(gen_rows))


def parity_by_nullspace(code):
    """The parity basis of a code from its generator alone: the reduced
    basis of the generator's nullspace, independent of the parity columns
    that `codes.parity_basis` reduces."""
    return rref(list(nullspace(code.generator, code.length)))


def extended_parity_by_ones_row(code):
    """The parity basis of `extend_code(code)` by a third route: the parity
    rows of code (`parity_by_nullspace`), then the all-ones row, reduced
    together."""
    return rref([*parity_by_nullspace(code), (1 << (code.length + 1)) - 1])


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
