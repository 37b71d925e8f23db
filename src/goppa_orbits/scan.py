"""The census's numpy half: the coordinate kernel of GF(2^(6n)) over
GF(q^3), q = 2^n, and the ordered scan of the affine classes (`_run_sweep`)
behind the census and the fixed-point oracle of `counting`.

No module imports this one, the package's one module-level numpy import,
at module level: `counting._sweep` imports it on a census cache miss and
`mobius`'s two orbit builders on their call, so the CLI's import, a tower
and every scalar command compile neither it nor numpy. Every table pass is
a `Tower.apply_tables`, every byte table a `Tower._byte_tables`.

Three table records per tower are built on first use and kept in the
tower's table cache (`_per_tower`): `normal_tables`, in whose normal basis
squaring is a rotation by one bit; `_census_tables`, the census's one
record; and `_cubic_logs`, the coordinate kernel behind the package's one
vector product (`mul_vec`) and one vector inverse (`inv_vec`). The kernel
works in coordinates over GF(q^3), as composite-field arithmetic does
(Guajardo and Paar, CRYPTO 1997), and every product and quotient in
GF(q^3) is a sum of logs on int32 tables of GF(q^3)*, 24 MiB at n = 7, so
it serves n <= 7. On 2 vCPU, building them takes 0.27 ms at n = 4 and
22-23 ms at n = 7 (median of 20 and 10 fresh towers in one process), one
`mul_vec` 0.05 ms on 4096 elements at n = 4 and 0.25 ms on 8192 at n = 7,
one `inv_vec` with a scale 0.07 and 0.27 ms (best of 5 x 100 calls), and
a scan with its tables built 1.6-1.8 ms at n = 5, 74-76 ms at n = 6 and
189-192 ms at n = 7.
"""

from __future__ import annotations

import functools
import random
import time
from typing import NamedTuple

import numpy as np

from . import gf2poly
from .counting import ConsistencyError, OrbitCensus
from .gf2tower import Tower, _chunk_tables, _ColumnSolver

# the generators `_cubic_logs` tries in GF(2)[y]/(m_w), as the roots a of
# their factors y + a: y, y + 1 and y (y + 1), each product a shift (and an add)
_GENERATORS = ((0,), (1,), (0, 1))
_CHUNK = 1 << 16  # elements per numpy pass while `_cubic_logs` fills its tables

# class ranks in the first block of the scan and in its largest; the blocks
# double in between. The first block holds the least class of every orbit
# at n <= 4 on the default moduli, but not on every modulus: at n = 4 the
# last least class has rank 2150 under 24,9,3,1,0 and 5339 under 24,16,3,1,0
_FIRST_BLOCK, _BLOCK = 1 << 11, 1 << 13
_INDEX_BITS = (_BLOCK - 1).bit_length()  # a class's index in its block, in the sort key


def _per_tower(build):
    """build(ctx), run once per tower: its value is kept in the tower's
    table cache under (its name,); a build that raises keeps nothing."""
    key = (build.__name__,)

    @functools.wraps(build)
    def cached(ctx: Tower):
        if key not in ctx._np_tables:
            ctx._np_tables[key] = build(ctx)
        return ctx._np_tables[key]
    return cached


def _fold(s: np.ndarray, order: int) -> np.ndarray:
    """s less order where s >= order, for an int32 array s >= 0: read as
    uint32, s - order wraps above s exactly where s < order, so the least
    of the two is the result. A sum of two logs below order lands below
    order, and a sum that holds log 0 (3 order) stays past 2 order."""
    s = s.view(np.uint32)
    return np.minimum(s, s - np.uint32(order)).view(np.int32)


class _CubicLogs(NamedTuple):
    """The coordinate kernel's tables and the log of its c (`_cubic_logs`)."""

    coords: np.ndarray
    out: np.ndarray
    log: np.ndarray
    exp: np.ndarray
    log_c: int


def frobenius_vec(ctx: Tower, x: np.ndarray, i: int) -> np.ndarray:
    """x^(2^i) for each encoding, on the byte tables of `Tower.frob_tables`."""
    return Tower.apply_tables(ctx.frob_tables(i), x)


@_per_tower
def normal_tables(ctx: Tower) -> np.ndarray:
    """Byte tables of the coordinates in a normal basis beta^(2^i),
    i < 6n: bit i of the image of x is the coefficient of beta^(2^i), so
    the image of x^2 is that of x rotated left by one bit.

    beta is the first draw of random.Random(0).getrandbits(6n) whose 6n
    squarings `_ColumnSolver` finds independent: 1-4 draws on the towers
    tried, where ordered candidates (x^(6n-1) + k, ascending) took hundreds."""
    m = ctx.big_degree
    rng = random.Random(0)
    while True:
        squarings = [rng.getrandbits(m)]
        for _ in range(m - 1):
            squarings.append(ctx.square(squarings[-1]))
        solver = _ColumnSolver(squarings)
        if not solver.kernel_basis:
            break
    return ctx._byte_tables([solver.solve(1 << j) for j in range(m)])


@_per_tower
def _cubic_logs(ctx: Tower) -> _CubicLogs:
    """The tables of the coordinate kernel (`mul_vec`, `inv_vec`):
    GF(q^6) = GF(q^3)(t), q = 2^n, in coordinates over GF(q^3), and
    discrete logs on GF(q^3)*. With k = 3n, they are (coords, out, log,
    exp, log_c): byte tables from an encoding x = u + v t to
    u | v << k | (u^2 + c v^2) << 2k, and from u | v << k back to x; then
    int32 logs and powers of g on GF(q^3)* with u and v read in the basis
    w^0..w^(k-1), exp[i] = g^(i mod (2^k - 1)) for i < 2(2^k - 1),
    exp[2(2^k - 1)] = 0, and log 0 = 3(2^k - 1), so that a sum that holds
    log 0, even less 2^k - 1 (`_fold`), lies past the zero entry of exp,
    which every lookup clips onto; and log_c, the log of c, which the
    product's c v v' term adds.

    w, m_w and the draw z are the first model of GF(q^3)
    (`Tower._trace_models`) whose K = GF(2)[y]/(m_w) has y, y + 1 or
    y (y + 1) for a generator g (`gf2poly.is_generator`, on 3n-bit
    integers). There w = Tr(z) = z + sigma^(3n)(z) has degree 3n, so it is
    nonzero, t = z / w has t + sigma^(3n)(t) = 1, and c = t^2 + t lies in
    GF(q^3), the kernel of sigma^(3n) + id. So x = u + v t with u, v in K,
    read in the basis w^0..w^(3n-1), and exp[i] = g^i: the first 64 by
    shifts, then doubled on the tables of the products by g^64, g^128, ...,
    each read on the low and the high half of g^i.

    n = 8..10 are refused before anything is built, by a ValueError that
    names both limits: at n = 8 the shift by 2k would pass bit 63 silently.
    Raises AssertionError when t, c, the change of basis or the powers of g
    are not what they must be."""
    m, k = ctx.big_degree, 3 * ctx.n
    if m > 63:
        raise ValueError("vectorized paths need encodings below 64 bits")
    if k > 21:
        raise ValueError(f"mul_vec and inv_vec serve n <= 7: at n = {ctx.n} their log "
                         f"tables on GF(q^3) would hold 2^{k} entries each, and their "
                         f"packed coordinates u | v << {k} | (u^2 + c v^2) << {2 * k} "
                         f"would need {3 * k} of the 63 bits of an int64")
    order = (1 << k) - 1  # |GF(q^3)*|
    powers, m_w, z, g = next((powers, m_w, z, g) for powers, m_w, z in ctx._trace_models(k)
                             for g in _GENERATORS if gf2poly.is_generator(m_w, g))
    t = ctx.mul(z, ctx.inv(powers[1]))  # powers[1] = w = Tr(z)
    if t ^ ctx.frobenius(t, k) != 1:
        raise AssertionError("t + sigma^3n(t) is not 1")
    c = ctx.square(t) ^ t
    if ctx.frobenius(c, k) != c:
        raise AssertionError("c = t^2 + t lies outside GF(q^3)")
    cols = powers + [ctx.mul(p, t) for p in powers]  # w^i, then w^i t
    solver = _ColumnSolver(cols)
    if solver.kernel_basis:
        raise AssertionError("the basis w^i, w^i t of GF(q^6) is singular")

    def times_g(v: int) -> int:  # v g in K: a shift (and an add) per factor
        for a in g:
            v = v << 1 ^ (v if a else 0)
            if v >> k:
                v ^= m_w
        return v

    seed = [1]  # g^i below 64
    for _ in range(min(64, order) - 1):
        seed.append(times_g(seed[-1]))
    by = []  # columns g^d y^i of the products by g^d, d = 64, 128, ... below the order
    g_d = times_g(seed[-1])
    for _ in range(k - 6):
        col = g_d
        for _ in range(k):
            by.append(col)
            col <<= 1
            if col >> k:
                col ^= m_w
        g_d = gf2poly.mod(gf2poly.square(g_d), m_w)
    half = (k + 1) // 2  # the tables read the low and the high half of g^i
    exp = np.empty(2 * order + 1, dtype=np.int32)
    exp[:len(seed)] = seed
    done = len(seed)
    for low, high in _chunk_tables(np.array(by, dtype=np.int32).reshape(-1, k), half):
        step = min(done, order - done)  # g^done g^i, on the tables of g^done
        for lo in range(0, step, _CHUNK):
            head = exp[lo:min(lo + _CHUNK, step)]
            part = exp[done + lo:done + lo + head.size]
            np.take(low, head & (1 << half) - 1, out=part)
            part ^= high[head >> half]
        done += step
    log = np.full(order + 1, -1, dtype=np.int32)
    for lo in range(0, order, _CHUNK):
        hi = min(lo + _CHUNK, order)
        log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
    if log[0] != -1 or (log[1:] < 0).any():
        raise AssertionError("the powers of g are not all of GF(q^3)*")
    exp[order:2 * order] = exp[:order]
    exp[2 * order], log[0] = 0, 3 * order  # a sum holding log 0 lies past the zero

    # each bit of an encoding in coordinates u | v << 3n; u^2 + c v^2 is
    # linear in them, with columns y^2i and c y^2i, and lands above 6n
    ys, cs = [1], [solver.solve(c)]  # y^i and c y^i; c has no v part
    for _ in range(2 * k - 2):
        for col in (ys, cs):
            v = col[-1] << 1
            col.append(v ^ m_w if v >> k else v)
    to_uv, from_coords, square = _chunk_tables(np.array(
        [[solver.solve(1 << j) for j in range(m)], cols, ys[::2] + cs[::2]], dtype=np.int64))
    to_coords = to_uv ^ Tower.apply_tables(square, to_uv) << 2 * k
    return _CubicLogs(to_coords, from_coords, log, exp, int(log[cs[0]]))


def _coord_logs(ctx: Tower, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logs of u, v and u + v for each x = u + v t packed as
    u | v << 3n (bits from 6n up ignored), on the tables of `_cubic_logs`:
    the form in which `_mul_logs` takes its operands."""
    log = _cubic_logs(ctx).log
    k = 3 * ctx.n
    order = (1 << k) - 1
    u, v = x & order, (x >> k) & order
    return log[u], log[v], log[u ^ v]


def _mul_logs(ctx: Tower, x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> np.ndarray:
    """The product of two elements given as the logs of their u, v and
    u + v (`_coord_logs`), each below 2^(3n) - 1 or, for a zero, past
    2(2^(3n) - 1), packed as u | v << 3n. With t^2 = t + c,

        (u + v t)(u' + v' t) = (u u' + c v v') + ((u + v)(u' + v') + u u') t,

    three products in GF(q^3), each one sum of logs and one lookup in
    exp; the log of c joins the log of v, folded back below 2^(3n) - 1
    (`_fold`). v is shifted in int64: exp holds int32, which the shift
    by 3n would overflow from n = 6."""
    _, _, _, exp, log_c = _cubic_logs(ctx)
    k = 3 * ctx.n
    uu = np.take(exp, x[0] + y[0], mode="clip")
    cvv = np.take(exp, _fold(x[1] + log_c, (1 << k) - 1) + y[1], mode="clip")
    sums = np.take(exp, x[2] + y[2], mode="clip")
    return np.left_shift(sums ^ uu, k, dtype=np.int64) | (uu ^ cvv)


def mul_vec(ctx: Tower, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise products in coordinates over GF(q^3), q = 2^n, n <= 7
    (`_cubic_logs`): x and y hold u | v << 3n for u + v t, bits from 6n
    up ignored, and are broadcast against each other as numpy operands
    are, so shapes (1, R) and (E, 1) give the (E, R) table of every
    product; the result is packed the same way (`_mul_logs`)."""
    return _mul_logs(ctx, _coord_logs(ctx, x), _coord_logs(ctx, y))


def inv_vec(ctx: Tower, x: np.ndarray, scale: np.ndarray | None = None,
            numer: np.ndarray | None = None) -> np.ndarray:
    """Elementwise numer/(x s) in coordinates over GF(q^3), q = 2^n,
    n <= 7 (`_cubic_logs`), and 0 where x s = 0, packed as u | v << 3n:
    x holds u | v << 3n | (u^2 + c v^2) << 6n, as the table `coords`
    gives; s, an optional array of elements of GF(q^3) read as u, and
    numer, optional packed coordinates, are 1 by default and broadcast
    against x.

    The conjugate of x over GF(q^3) is (u + v) + v t, the norm
    N = u(u + v) + c v^2 = (u^2 + c v^2) + u v lies in GF(q^3), and
    1/(x s) = ((u + v) + v t)/(N s), whose u + v is u/(N s). The product
    u v is one sum of logs; the log of 1/(N s) is 2^(3n) - 1 less the
    log of N s, folded (`_fold`), and where N s = 0 the mask puts log 0
    in its place, so that the result reads 0. The logs of 1/(x s) then
    go straight into the product by numer (`_mul_logs`): the inverse is
    never packed, nor its logs looked up again. `_cross_ratio` passes a
    numerator and a scale, `mobius.suborbit_representatives` neither."""
    _, _, log, exp, _ = _cubic_logs(ctx)
    k = 3 * ctx.n
    order = (1 << k) - 1
    lu, lv, luv = _coord_logs(ctx, x)
    norm = (x >> 2 * k) ^ np.take(exp, lu + lv, mode="clip")
    ld = log[norm] if scale is None else log[norm] + log[scale]
    neg = order - _fold(ld, order)  # log 1/(N s), in (0, order] unless N s = 0
    neg = np.where(neg > 0, neg, log[0])
    inv = _fold(luv + neg, order), _fold(lv + neg, order), _fold(lu + neg, order)
    one = 0, log[0], 0  # the logs of u = 1, v = 0 and u + v = 1
    return _mul_logs(ctx, one if numer is None else _coord_logs(ctx, numer), inv)


# ------------------------------------------------------------------ the scan


@_per_tower
def _census_tables(ctx: Tower) -> tuple[np.ndarray, ...]:
    """The census's table record, byte tables (elements, xz, y, w, normal).

    A class is a point of P^4(GF(q)), q = 2^n, as GF(q^6)/GF(q) is a
    5-dimensional GF(q)-space. Coordinates use the GF(2)-basis
    gamma_k * theta^j (k < n, j < 6) with gamma_k = embed_base(2^k) and
    theta = x, the generator of the big field; base-field coordinate j of
    an element sits in bits [jn, jn + n). Dropping coordinate 0 quotients by
    GF(q) and leaves the class coordinates, coordinate j at bits
    [(j - 1)n, jn), which the first four tables read. `elements` takes
    them to the element whose coordinate 0 is 0. xz, y and w, the operand
    tables of `_cross_ratio` to X | Z << 6n, to Y and to W with its
    u^2 + c v^2, compose the kernel's tables (`_cubic_logs`) with
    sigma^n and sigma^(2n) (`Tower.frob_tables`) and with the basis: their
    columns are the kernel's images of the 5n basis elements and of their
    q- and q^2-powers. `normal` composes `normal_tables` with the
    kernel's table back from u | v << 3n."""
    n, k = ctx.n, 3 * ctx.n
    gammas = [ctx.embed_base(1 << i) for i in range(n)]
    # theta^j = x^j is the bitmask 1 << j, already reduced as j < 6 <= 6n
    basis = [ctx.mul(g, 1 << j) for j in range(6) for g in gammas]
    if _ColumnSolver(basis).kernel_basis:
        raise ConsistencyError("gamma_k * theta^j is not a basis of the big field")
    coords, out, *_ = _cubic_logs(ctx)
    b0 = np.array(basis[n:])  # coordinate 0, GF(q), is dropped
    b1 = frobenius_vec(ctx, b0, n)
    a0, a1, a2 = (Tower.apply_tables(coords, b) for b in (b0, b1, frobenius_vec(ctx, b1, n)))
    uv, v0 = (1 << 2 * k) - 1, (a0 >> k) & ((1 << k) - 1)
    # X = a0 + a2, Z = a0 + a3 = v0; Y = a1 + a3, a3 = (u0 + v0) + v0 t; W = a1 + a2
    cols = [b0, ((a0 ^ a2) & uv) | v0 << 2 * k, (a1 ^ a0 ^ v0) & uv, a1 ^ a2]
    return (*ctx._byte_tables(np.stack(cols)), Tower.apply_tables(normal_tables(ctx), out))


def _class_coordinates(n: int, ranks: np.ndarray) -> np.ndarray:
    """The class coordinates (`_census_tables`) of each given class rank.
    Scaling the highest nonzero coordinate (index l) to 1 picks the
    projective point, and points are ranked by l, then by the lower
    coordinates read as one integer."""
    q = 1 << n
    offsets = np.array([(q ** l - 1) // (q - 1) for l in range(5)])  # first rank of each l
    lead = offsets.searchsorted(ranks, side="right") - 1
    return (1 << lead * n) + ranks - offsets[lead]


def _cross_ratio(ctx: Tower, point: np.ndarray) -> np.ndarray:
    """The coordinates in the normal basis of `normal_tables` of
    mu = (a0 + a2)(a1 + a3) / ((a0 + a3)(a1 + a2)) for each class, given
    its class coordinates (`_census_tables`), with a_i = alpha^(q^i),
    q = 2^n, for any alpha of the class, and 1/0 read as 0. For alpha of
    degree 6 the a_i are distinct and mu lies outside {0, 1}; in GF(q^2)
    a2 = a0, and in GF(q^3) a3 = a0, so mu = 0 there. mu is the same on
    the whole class: each factor is a sum of two conjugates, so adding f in
    GF(q) cancels, and scaling by e in GF(q)* scales the numerator and the
    denominator alike.

    It runs in the coordinates x = u + v t over GF(q^3) of the coordinate
    kernel. a3 is the conjugate (u0 + v0) + v0 t of a0 = u0 + v0 t, so
    Z = a0 + a3 is v0, in GF(q^3), and with X = a0 + a2, Y = a1 + a3 and
    W = a1 + a2, mu = X Y conj(W) / (N(W) Z): the product X Y (`mul_vec`),
    divided by W scaled by Z (`inv_vec`, which multiplies by the inverse
    without building it). X and Z, Y, and W with its u^2 + c v^2 each come
    from one byte table on the class coordinates, and one more takes mu
    from u | v << 3n to its normal-basis coordinates: four table passes."""
    _, xz, y, w, normal = _census_tables(ctx)
    xz = Tower.apply_tables(xz, point)
    mu = inv_vec(ctx, Tower.apply_tables(w, point), xz >> 6 * ctx.n,
                 numer=mul_vec(ctx, xz, Tower.apply_tables(y, point)))
    return Tower.apply_tables(normal, mu)


def _canonical(ctx: Tower, mu: np.ndarray) -> np.ndarray:
    """The least of the 6n squarings of each element, given its
    coordinates in the normal basis of `normal_tables`, as `_cross_ratio`
    returns them. In that basis squaring rotates the coordinates by one
    bit, so 6n - 1 rotations replace 6n - 1 Frobenius applications, and
    each takes two passes, a shift and a minimum.

    Left-aligned in a uint64 by s = 64 - 6n and doubled (w | w >> 6n), mu
    holds its rotation by each i <= s as the top 6n bits of the word
    shifted left by i. The bits below them only break ties between equal
    tops, so the least of the shifted words, shifted right by s, is the
    least rotation. Where s < 6n - 1 (n = 6, 7), the rotations run in two
    stages, the second re-doubled from the rotation by s."""
    m = ctx.big_degree
    s = 64 - m
    top = np.uint64(((1 << m) - 1) << s)
    word = mu.view(np.uint64) << s  # the rotation by 0
    least, shifted = word.copy(), np.empty_like(word)
    for start in range(0, m - 1, s):  # the rotations by start + 1, ..., start + s
        doubled = word | word >> m
        for i in range(1, min(s, m - 1 - start) + 1):
            np.left_shift(doubled, i, out=shifted)
            np.minimum(least, shifted, out=least)
        word = shifted & top  # the rotation by start + s, if a stage follows
    least >>= s
    return least.view(np.int64)


def _period(m: int, x: np.ndarray) -> np.ndarray:
    """t, the least p >= 1 that rotates each m-bit x to itself. On the
    normal-basis coordinates of mu (`_canonical`), a rotation by p is the
    2^p-power, so t is the least p >= 1 with mu^(2^p) = mu. t divides m, so
    only the divisors are tested, all at once, one row each."""
    p = np.array([d for d in range(1, m + 1) if m % d == 0])[:, None]
    rotated = (x & ((1 << (m - p)) - 1)) << p | x >> (m - p)
    return p[(rotated == x).argmax(axis=0), 0]  # the row p = m always holds


def _run_sweep(ctx: Tower) -> OrbitCensus:
    """Enumerate every semi-linear orbit on the degree-6 set by an ordered
    scan of the affine classes, keyed by the cross-ratio.

    A Mobius map over GF(q), q = 2^n, commutes with the q-power, so the
    cross-ratio mu of the q-power conjugates (`_cross_ratio`) is constant on
    a PGL(2, q) orbit, and mu(alpha^2) = mu(alpha)^2, so the least of the 6n
    squarings of mu (`_canonical`) is constant on a semi-linear orbit.

    The scan walks the class ranks upward in blocks, takes mu straight from
    the class coordinates of each rank (`_class_coordinates`), in four
    table passes per block, and sorts the block once by the int64 key
    canonical mu << _INDEX_BITS | i, i the class's index in the block, so
    the first key of each run of equal values is its value's least class.
    It drops the value 0, the canonical mu of mu = 0 alone (`normal_tables`
    is a bijection): the q + 2 classes inside GF(q^2) and GF(q^3). It
    accepts a class when its canonical mu is new and records, by ascending
    index, the pair (rep, t): an element of the class (the `elements` table
    of `_census_tables` on the block's class coordinates, for the accepted
    ranks only) and t, the least p >= 1 with mu^(2^p) = mu, as the count of
    linear orbits; mu^(2^p) = mu iff t divides p. t is read off the
    accepted classes' canonical mu alone (`_period`); the running sum of t
    is the count of linear orbits, and N(t), the number of records with
    each t, is counted once per census, one `bincount` per block
    (`OrbitCensus.t_counts`). An accepted class is the least of
    its orbit, as every class below it was scanned first, so records come
    out in ascending class rank.

    The scan stops when the accepted orbits' classes, t(q + 1) each, sum to
    the (q^5 - 1)/(q - 1) - (q + 2) degree-6 classes. This certifies the
    census without assuming that mu is complete: if sigma^p fixes a linear
    orbit then mu^(2^p) = mu, so t divides the orbit's true count of linear
    orbits, and a canonical mu shared by several orbits is accepted once.
    So the sum never exceeds the classes that the accepted orbits hold, and
    it reaches the total only when every class lies in an accepted orbit,
    each mu marks one orbit and each t is exact. A sum past the total, or
    ranks that run out before it, raise ConsistencyError, as does a final
    size identity: the orbits and GF(q^2) u GF(q^3) fill the tower's order.
    """
    n, m = ctx.n, ctx.big_degree
    q = 1 << n
    start = time.perf_counter()
    count = (q ** 5 - 1) // (q - 1)
    degree_six_classes = count - (q + 2)
    seen = np.array([-1])  # canonical mu of the records, sorted, after a sentinel
    records: list[tuple[int, int]] = []
    n_of_t = np.zeros(m + 1, dtype=np.int64)  # N(t), t | 6n
    elements = _census_tables(ctx)[0]
    pgl_orbit_count = covered = 0
    lo, size = 0, _FIRST_BLOCK
    while lo < count:
        ranks = np.arange(lo, min(lo + size, count))
        lo, size = lo + size, min(2 * size, _BLOCK)
        point = _class_coordinates(n, ranks)
        canon = _canonical(ctx, _cross_ratio(ctx, point))
        key = np.sort(canon << _INDEX_BITS | np.arange(canon.size))
        value = key >> _INDEX_BITS
        head = key[(value != 0) & np.concatenate(([True], value[1:] != value[:-1]))]
        value = head >> _INDEX_BITS  # ascending; head holds the least index of each
        pos = seen.searchsorted(value, side="right")
        new = seen[pos - 1] != value  # pos >= 1: the sentinel is below every value
        if not new.any():
            continue
        seen = np.insert(seen, pos[new], value[new])
        index = np.sort(head[new] & (1 << _INDEX_BITS) - 1)  # in ascending rank
        t = _period(m, canon[index])
        records += zip(Tower.apply_tables(elements, point[index]).tolist(), t.tolist())
        n_of_t += np.bincount(t, minlength=m + 1)
        pgl_orbit_count += int(t.sum())
        covered = pgl_orbit_count * (q + 1)
        if covered >= degree_six_classes:
            break
    if covered != degree_six_classes:
        raise ConsistencyError(
            f"the scan's orbits hold {covered} classes, not the "
            f"{degree_six_classes} degree-6 classes")
    orbit_size = (1 << 3 * n) - (1 << n)
    s_size = ctx.order - (q * q + q ** 3 - q)  # |GF(q^2) u GF(q^3)|: they meet in GF(q)
    if pgl_orbit_count * orbit_size != s_size:
        raise ConsistencyError(
            f"orbit sizes sum to {pgl_orbit_count * orbit_size}, expected |S| = {s_size}")
    return OrbitCensus(
        n=n,
        records=tuple(records),
        t_counts=tuple((t, count) for t, count in enumerate(n_of_t.tolist()) if count),
        pgl_orbit_size=orbit_size,
        pgl_orbit_count=pgl_orbit_count,
        elements_visited=s_size,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )
