"""Orbit counts: closed-form fixed-point formulas, the averaged orbit bound,
and independent oracles (global census, fixed points, root counts).

The closed forms are pure integer formulas valid for prime n > 3. Reports
print them in full, so the commands refuse n > `MAX_CLOSED_FORM_N` = 701, the
last prime whose closed forms stay below 640 digits, the least limit that
PYTHONINTMAXSTRDIGITS accepts for int-to-string conversion. Every one
of them is paired with an oracle that recomputes the same quantity from the
group action itself, with no shared formulas: the census and the fixed-point
oracle scan the affine classes of P^4(GF(2^n)) in ascending rank and key each
by an orbit invariant, the cross-ratio of the first four q-power conjugates,
until the orbits found hold every class (`_run_sweep` says why that stop
certifies the census); the element-level orbits and class equations that
check it are test oracles in `tests/`. The root-count oracles count by rank,
one stacked GF(2)-linear system per subfield; the one equation that is not
linear, eq_41, is counted on the kernel of a linearized polynomial whose
nonzero elements map onto its roots. Each orbit is represented by
an element of its least class rank, the first class the scan meets. At
n = 7 the scan meets the least class of every orbit in the first 0.4 % of
the ranks (0.22 s in-process on 2 vCPU with the tables built, n = 6
0.083-0.087 s and n = 5 2.4 ms, and 83 MiB peak RSS as a `--json`
command, 24 MiB of it the log tables of GF(q^3)*). Its costly steps are
the cross-ratio, taken in coordinates over GF(q^3), where every product
and the one inverse are sums of logs on those tables (`Tower.mul_vec`,
`Tower.inv_vec`), and the least of the 6n squarings of each value, read
as rotations of its coordinates in a normal basis (`_canonical`); the
bookkeeping is one sort per block. The census and the oracle stay
limited to n <= 7, where the n = 8 report would hold some 350,000
records; larger n is refused with a cost estimate rather than
attempted. The root counts list no root, so they run up to the tower's
cap, n <= 16.

Only the scan uses numpy: `_class_elements`, `_canonical`, `_period` and
`_run_sweep` import it on their first call, so the closed forms, the root
counts and a fixed-point count read off a cached census run without it, as
does importing this module.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from . import gf2poly
from .gf2tower import _MAX_N, Tower, _ColumnSolver, solve_affine_linearized

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InfeasibleError",
    "ConsistencyError",
    "euler_phi",
    "is_prime",
    "closed_form_fixed_points",
    "fixed_points_for_power",
    "burnside_numerator",
    "burnside_decomposition",
    "burnside_bound",
    "OrbitCensus",
    "global_orbit_census",
    "fixed_point_oracle",
    "ROOT_EQUATIONS",
    "ROOT_EXPECTED",
    "RootCounts",
    "root_count_oracle",
    "permutation_cycles",
    "MAX_SWEEP_N",
    "MAX_ROOTS_N",
    "MAX_CLOSED_FORM_N",
]

MAX_SWEEP_N = 7
MAX_ROOTS_N = _MAX_N  # every root count is a rank: any tower will do
# the closed forms grow as 2^(3n): at n = 701 they have 634 digits, below the
# least limit (640) that PYTHONINTMAXSTRDIGITS accepts for printing an int
MAX_CLOSED_FORM_N = 701

ROOT_EQUATIONS = ("eq_3n", "eq_2n_affine", "eq_41", "eq_deg8", "fixed_field_64")
# the paper's closed forms for the degree-6 root counts of each equation, prime n > 3
ROOT_EXPECTED = {
    "eq_3n": lambda n: (1 << 3 * n) - (1 << n),
    "eq_41": lambda n: (1 << 2 * n) - (1 << n) - 2,
    "eq_deg8": lambda n: 6,
    "fixed_field_64": lambda n: 54,
    "eq_2n_affine": lambda n: 0,
}


class InfeasibleError(Exception):
    """A computation was refused because it exceeds the desk-scale budget."""


class ConsistencyError(Exception):
    """Two routes to the same quantity disagreed; must never happen."""


# ------------------------------------------------------------- closed forms


def is_prime(k: int) -> bool:
    return k >= 2 and gf2poly._prime_factors(k) == [k]


def euler_phi(k: int) -> int:
    out = k
    for f in gf2poly._prime_factors(k):
        out -= out // f
    return out


def _closed_form_cost_check(n: int, flag: str = "n") -> None:
    if n > MAX_CLOSED_FORM_N:
        raise InfeasibleError(
            f"--{flag} {n}: the closed forms grow as 2^(3n) and are printed in "
            f"full; bound and fixed are limited to n <= {MAX_CLOSED_FORM_N}")


def _require_odd_prime(n: int) -> None:
    if n <= 3 or not is_prime(n):
        raise ValueError("closed forms require a prime n greater than 3")


def closed_form_fixed_points(n: int, order: int) -> int:
    """Count of linear-group orbits fixed by a Galois element of the given order."""
    _require_odd_prime(n)
    table = {
        1: (1 << 3 * n) + (1 << n) - 1,
        2: (1 << 2 * n) - 1,
        3: (1 << n) - 2,
        6: 0,
        n: 9,
        2 * n: 3,
        3 * n: 0,
        6 * n: 0,
    }
    if order not in table:
        raise ValueError(f"order {order} does not divide 6n = {6 * n}")
    return table[order]


def fixed_points_for_power(n: int, i: int) -> int:
    """Closed form for the i-th Frobenius power; depends only on gcd(i, 6n)."""
    _require_odd_prime(n)
    d = math.gcd(i, 6 * n)
    return closed_form_fixed_points(n, 6 * n // d)


def burnside_numerator(n: int) -> int:
    return (1 << 3 * n) + (1 << 2 * n) + 3 * (1 << n) + 12 * n - 18


def burnside_decomposition(n: int) -> list[dict]:
    """Per-divisor terms of the averaged fixed-point sum."""
    _require_odd_prime(n)
    rows = []
    for d in sorted(k for k in range(1, 6 * n + 1) if (6 * n) % k == 0):
        order = 6 * n // d
        fixed = closed_form_fixed_points(n, order)
        phi = euler_phi(6 * n // d)
        rows.append({
            "divisor": d,
            "order": order,
            "fixed_points": fixed,
            "phi": phi,
            "term": fixed * phi,
        })
    return rows


def burnside_bound(n: int) -> int:
    """Upper bound on inequivalent extended codes: the averaged fixed-point count."""
    return _burnside(n)[1]


def _burnside(n: int) -> tuple[list[dict], int]:
    """`burnside_decomposition` and the bound from it: the phi-weighted divisor
    sum must equal the closed-form numerator, and the numerator divide by 6n
    (ConsistencyError otherwise)."""
    rows = burnside_decomposition(n)
    numerator = burnside_numerator(n)
    phi_sum = sum(row["term"] for row in rows)
    if phi_sum != numerator:
        raise ConsistencyError(
            f"divisor sum {phi_sum} differs from closed form {numerator} at n={n}")
    if numerator % (6 * n):
        raise ConsistencyError(f"closed form not divisible by 6n at n={n}")
    return rows, numerator // (6 * n)


# ------------------------------------------------------------------ the scan


# class ranks in the first block of the scan and in its largest; the blocks
# double in between. The first block holds the least class of every orbit
# at n <= 4 on the default moduli, but not on every modulus: at n = 4 the
# last least class has rank 2150 under 24,9,3,1,0 and 5339 under 24,16,3,1,0
_FIRST_BLOCK, _BLOCK = 1 << 11, 1 << 13
_INDEX_BITS = (_BLOCK - 1).bit_length()  # a class's index in its block, in the sort key


def _sweep_cost_check(n: int) -> None:
    """Refuse n > MAX_SWEEP_N; the refusal counts the classes as a 2^k
    expression, which stays one short line for any n."""
    if n > MAX_SWEEP_N:
        raise InfeasibleError(
            f"n={n}: the census and fixed-point oracle scan the "
            f"(2^{5 * n} - 1)/(2^{n} - 1) classes of P^4(GF(2^{n})) by rank until "
            f"their orbits hold every class; they are limited to n <= {MAX_SWEEP_N}")


def _class_elements(ctx: Tower, ranks: np.ndarray) -> np.ndarray:
    """One element of the affine class {e*beta + f : e in GF(q)*, f in GF(q)}
    of each given rank, q = 2^n.

    A class is a point of P^4(GF(q)), as GF(q^6)/GF(q) is a 5-dimensional
    GF(q)-space. Coordinates use the GF(2)-basis gamma_k * theta^j (k < n,
    j < 6) with gamma_k = embed_base(2^k) and theta = x, the generator of the
    big field; base-field coordinate j of an element sits in bits
    [jn, jn + n). Dropping coordinate 0 quotients by GF(q) and leaves
    coordinate j at bits [(j - 1)n, jn); scaling the highest nonzero one
    (index l) to 1 picks the projective point. Points are ranked by l, then
    by the lower coordinates read as one integer. The element taken has
    coordinate 0 equal to 0. The byte tables of the basis are built once and
    kept in the tower's table cache.
    """
    import numpy as np
    n, q = ctx.n, 1 << ctx.n
    from_coords = ctx._np_tables.get(("class_elements",))
    if from_coords is None:
        gammas = [ctx.embed_base(1 << k) for k in range(n)]
        # theta^j = x^j is the bitmask 1 << j, already reduced as j < 6 <= 6n
        basis = [ctx.mul(g, 1 << j) for j in range(6) for g in gammas]
        if _ColumnSolver(basis).kernel_basis:
            raise ConsistencyError("gamma_k * theta^j is not a basis of the big field")
        from_coords = ctx._np_tables[("class_elements",)] = ctx._byte_tables(basis)
    offsets = np.array([(q ** l - 1) // (q - 1) for l in range(5)])  # first rank of each l
    lead = offsets.searchsorted(ranks, side="right") - 1
    point = (1 << lead * n) + ranks - offsets[lead]
    return Tower.apply_tables(from_coords, point << n)


class SweepRecord(NamedTuple):
    """One semi-linear orbit: its representative and t, its count of linear
    orbits; sigma^p fixes each member orbit iff t divides p, and t | 6n."""

    rep: int
    pgl_orbits: int


class OrbitCensus(NamedTuple):
    """Census of semi-linear orbits on the degree-6 set, in ascending class
    rank of the representatives."""

    n: int
    records: tuple[SweepRecord, ...]
    pgl_orbit_size: int
    pgl_orbit_count: int
    elements_visited: int
    elapsed_ms: float

    @property
    def orbit_count(self) -> int:
        return len(self.records)

    @property
    def orbit_sizes(self) -> tuple[tuple[int, int], ...]:
        """(size, multiplicity) pairs, ascending by size."""
        hist = Counter(r.pgl_orbits * self.pgl_orbit_size for r in self.records)
        return tuple(sorted(hist.items()))


def _cross_ratio(ctx: Tower, alpha: np.ndarray) -> np.ndarray:
    """The coordinates in the normal basis of `Tower.normal_tables` of
    mu = (a0 + a2)(a1 + a3) / ((a0 + a3)(a1 + a2)) for each element, with
    a_i = alpha^(q^i), q = 2^n, and 1/0 read as 0. For alpha of degree 6
    the a_i are distinct and mu lies outside {0, 1}; in GF(q^2) a2 = a0,
    and in GF(q^3) a3 = a0, so mu = 0 there.

    It runs in the coordinates x = u + v t over GF(q^3) of the tower's
    coordinate kernel. a3 is the conjugate (u0 + v0) + v0 t of
    a0 = u0 + v0 t, so Z = a0 + a3 is v0, in GF(q^3), and with
    X = a0 + a2, Y = a1 + a3 and W = a1 + a2, mu = X Y conj(W) / (N(W) Z):
    the product X Y (`Tower.mul_vec`), divided by W scaled by Z
    (`Tower.inv_vec`, which multiplies by the inverse without building it).
    X and Z, Y, and W with its u^2 + c v^2 each come from one byte table
    (`_cross_ratio_tables`), and one more takes mu from u | v << 3n to
    its normal-basis coordinates."""
    xz, y, w, normal = _cross_ratio_tables(ctx)
    xz = Tower.apply_tables(xz, alpha)
    mu = ctx.inv_vec(Tower.apply_tables(w, alpha), xz >> 6 * ctx.n,
                     numer=ctx.mul_vec(xz, Tower.apply_tables(y, alpha)))
    return Tower.apply_tables(normal, mu)


def _cross_ratio_tables(ctx: Tower) -> tuple[np.ndarray, ...]:
    """Byte tables from alpha to X | Z << 6n, to Y and to W with its
    u^2 + c v^2 (`_cross_ratio`), and from u | v << 3n to normal-basis
    coordinates, built once per tower and kept in its table cache. They
    compose the kernel's tables (`Tower._cubic_logs`) with sigma^n and
    sigma^(2n) (`Tower.frob_tables`) and with `Tower.normal_tables`, each
    composition one table application to the entries of another table:
    the tables of sigma^(2n) are those of sigma^n applied to their own
    entries."""
    tabs = ctx._np_tables.get(("cross_ratio",))
    if tabs is None:
        n, k = ctx.n, 3 * ctx.n
        coords, out, *_ = ctx._cubic_logs
        sigma = ctx.frob_tables(n)
        a1 = Tower.apply_tables(coords, sigma)
        a2 = Tower.apply_tables(coords, ctx.frobenius_vec(sigma, n))  # sigma^n twice
        uv, v0 = (1 << 2 * k) - 1, (coords >> k) & ((1 << k) - 1)
        tabs = ctx._np_tables[("cross_ratio",)] = (
            ((coords ^ a2) & uv) | v0 << 2 * k,  # X = a0 + a2, Z = a0 + a3 = v0
            (a1 ^ coords ^ v0) & uv,  # Y = a1 + a3, a3 = (u0 + v0) + v0 t
            a1 ^ a2,  # W = a1 + a2
            Tower.apply_tables(ctx.normal_tables, out))
    return tabs


def _canonical(ctx: Tower, mu: np.ndarray) -> np.ndarray:
    """The least of the 6n squarings of each element, given its
    coordinates in the normal basis of `Tower.normal_tables`, as
    `_cross_ratio` returns them. In that basis squaring rotates the
    coordinates by one bit, so 6n - 1 rotations replace 6n - 1 Frobenius
    applications, and each takes two passes, a shift and a minimum.

    Left-aligned in a uint64 by s = 64 - 6n and doubled (w | w >> 6n), mu
    holds its rotation by each i <= s as the top 6n bits of the word
    shifted left by i. The bits below them only break ties between equal
    tops, so the least of the shifted words, shifted right by s, is the
    least rotation. Where s < 6n - 1 (n = 6, 7), the rotations run in two
    stages, the second re-doubled from the rotation by s."""
    import numpy as np
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
    import numpy as np
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

    The scan walks the class ranks upward in blocks, takes one element of
    each class (`_class_elements`) and sorts the block once by the int64
    key canonical mu << _INDEX_BITS | i, i the class's index in the block,
    so the first key of each run of equal values is its value's least class.
    It drops the value 0, the canonical mu of mu = 0 alone (`normal_tables`
    is a bijection): the q + 2 classes inside GF(q^2) and GF(q^3). It
    accepts a class when its canonical mu is new and records, by ascending
    index, the element and t, the least p >= 1 with mu^(2^p) = mu, as the
    count of linear orbits; mu^(2^p) = mu iff t divides p. t is read off the
    accepted classes' canonical mu alone (`_period`). An accepted class
    is the least of its orbit, as every class below it was scanned first, so
    records come out in ascending class rank.

    The scan stops when the accepted orbits' classes, t(q + 1) each, sum to
    the (q^5 - 1)/(q - 1) - (q + 2) degree-6 classes. This certifies the
    census without assuming that mu is complete: if sigma^p fixes a linear
    orbit then mu^(2^p) = mu, so t divides the orbit's true count of linear
    orbits, and a canonical mu shared by several orbits is accepted once.
    So the sum never exceeds the classes that the accepted orbits hold, and
    it reaches the total only when every class lies in an accepted orbit,
    each mu marks one orbit and each t is exact. A sum past the total, or
    ranks that run out before it, raise ConsistencyError, as does a final
    size identity, |GF(q^2) u GF(q^3)| = q^2 + q^3 - q. Runs in one thread.
    """
    import numpy as np
    n, m = ctx.n, ctx.big_degree
    q = 1 << n
    _sweep_cost_check(n)
    start = time.perf_counter()
    count = (q ** 5 - 1) // (q - 1)
    degree_six_classes = count - (q + 2)
    seen = np.array([-1])  # canonical mu of the records, sorted, after a sentinel
    records: list[SweepRecord] = []
    covered = 0
    lo, size = 0, _FIRST_BLOCK
    while lo < count:
        alpha = _class_elements(ctx, np.arange(lo, min(lo + size, count)))
        lo, size = lo + size, min(2 * size, _BLOCK)
        canon = _canonical(ctx, _cross_ratio(ctx, alpha))
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
        records += map(SweepRecord, alpha[index].tolist(), t.tolist())
        covered += int(t.sum()) * (q + 1)
        if covered >= degree_six_classes:
            break
    if covered != degree_six_classes:
        raise ConsistencyError(
            f"the scan's orbits hold {covered} classes, not the "
            f"{degree_six_classes} degree-6 classes")
    pgl_orbit_count = sum(r.pgl_orbits for r in records)
    orbit_size = (1 << 3 * n) - (1 << n)
    s_size = (1 << m) - (q * q + q ** 3 - q)  # |GF(q^2) u GF(q^3)|: they meet in GF(q)
    if pgl_orbit_count * orbit_size != s_size:
        raise ConsistencyError(
            f"orbit sizes sum to {pgl_orbit_count * orbit_size}, expected |S| = {s_size}")
    return OrbitCensus(
        n=n,
        records=tuple(records),
        pgl_orbit_size=orbit_size,
        pgl_orbit_count=pgl_orbit_count,
        elements_visited=s_size,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )


_SWEEPS: dict[tuple[int, int, int], OrbitCensus] = {}


def _sweep(ctx: Tower, fresh: bool = False) -> OrbitCensus:
    """The census of one tower, cached by (n, modulus_base, modulus_big).

    The only reader and writer of the cache; fresh=True recomputes and
    refreshes the entry.
    """
    key = (ctx.n, ctx.modulus_base, ctx.modulus_big)
    if fresh or key not in _SWEEPS:
        _SWEEPS[key] = _run_sweep(ctx)
    return _SWEEPS[key]


# ---------------------------------------------------------------- the census


def global_orbit_census(ctx: Tower) -> OrbitCensus:
    """Run a full scan and tabulate the semi-linear orbits.

    Always recomputes, and the fresh result refills the census cache used by
    the fixed-point oracle.
    """
    return _sweep(ctx, fresh=True)


def fixed_point_oracle(ctx: Tower, d: int) -> int:
    """Count linear-group orbits fixed by the d-th Frobenius power, off the
    census.

    Formula-free: sigma^d fixes the linear orbits of a record iff
    mu^(2^d) = mu for its cross-ratio mu, that is, iff its t divides d, and
    the census's stop certifies that each record's t is exact.
    """
    return sum(r.pgl_orbits for r in _sweep(ctx).records if d % r.pgl_orbits == 0)


# ---------------------------------------------------------------- root counts


class RootCounts(NamedTuple):
    """Root tallies of one equation, split by where the roots live."""

    equation: str
    total: int
    in_degree_six: int
    in_subfield_2n: int
    in_subfield_3n: int


def _by_subfield(which: str, roots: dict[int, int]) -> RootCounts:
    """RootCounts from the root counts in GF(2^(jn)), keyed by j = 1, 2, 3, 6:
    the degree-6 roots are those outside GF(2^(2n)) and GF(2^(3n)), whose
    intersection is GF(2^n)."""
    return RootCounts(
        equation=which,
        total=roots[6],
        in_degree_six=roots[6] - roots[2] - roots[3] + roots[1],
        in_subfield_2n=roots[2],
        in_subfield_3n=roots[3],
    )


def _roots_cost_check(n: int, which: str) -> None:
    if which not in ROOT_EQUATIONS:
        raise ValueError(f"unknown equation {which!r}; choose from {ROOT_EQUATIONS}")
    if n > MAX_ROOTS_N:
        raise InfeasibleError(
            f"n={n}: the root counts work in the tower GF(2^{6 * n}), built for "
            f"n <= {MAX_ROOTS_N}, the last n with default moduli")


def root_count_oracle(ctx: Tower, which: str) -> RootCounts:
    """Count roots of one of the named equations, splitting by subfield.

    Every count is a rank. The zeros in GF(2^(jn)) of a GF(2)-linear map,
    set equal to rhs, solve one stacked GF(2) system, the map beside
    x^(2^(jn)) + x = 0, so they number 0 or 2^(kernel dimension). The
    affine-linearized equations, each x^(2^k) + x = rhs, are counted so
    directly; the whole field (j = 6) goes first, and without a root there
    the subfields are not solved.

    eq_41, f(x) = x^(q^2+1) + x + 1 with q = 2^n, is counted through
    L(z) = z^(q^4) + z^(q^2) + z: L(z)/z = f(z^(q^2-1)), and L is
    GF(q^2)-linear, so the q^2 - 1 nonzero multiples of a kernel element
    give one root, and every root in GF(2^(6n)) has norm 1 to GF(q^2), so
    it is reached. In GF(2^(3n)), y = 1/x turns f into y^(q+1) + y + 1,
    counted the same way by z^(q^2) + z^q + z with unit q - 1. In GF(2^(2n))
    and GF(2^n), f is x^2 + x + 1, counted as x^2 + x = 1. See Bluher,
    "On x^(q+1) + ax + b", Finite Fields Appl. 10 (2004).
    """
    _roots_cost_check(ctx.n, which)
    n, m = ctx.n, ctx.big_degree

    def count(cols: Sequence[int], rhs: int, j: int) -> int:
        sub = ctx._frob_plus_id_cols(j * n)  # all zero at j = 6
        coset = solve_affine_linearized([c | s << m for c, s in zip(cols, sub)], rhs)
        return 0 if coset is None else 1 << len(coset[1])

    if which == "eq_41":
        def kernel_lines(k: int, j: int) -> int:
            """(|ker L| - 1)/(2^k - 1) in GF(2^(jn)), L(z) = z^(2^(2k)) + z^(2^k) + z."""
            cols = [a ^ b ^ (1 << i) for i, (a, b)
                    in enumerate(zip(ctx._frob_cols(2 * k), ctx._frob_cols(k)))]
            nonzero, unit = count(cols, 0, j) - 1, (1 << k) - 1
            if nonzero % unit:
                raise ConsistencyError(
                    f"eq_41: {nonzero} nonzero kernel elements in GF(2^{j * n}), "
                    f"not a multiple of 2^{k} - 1")
            return nonzero // unit

        quadratic = ctx._frob_plus_id_cols(1)  # x^2 + x = 1
        return _by_subfield(which, {6: kernel_lines(2 * n, 6), 3: kernel_lines(n, 3),
                                    2: count(quadratic, 1, 2),
                                    1: count(quadratic, 1, 1)})
    k, rhs = {"eq_3n": (3 * n, 1), "eq_2n_affine": (2 * n, 1),
              "eq_deg8": (3, 1), "fixed_field_64": (6, 0)}[which]
    cols = ctx._frob_plus_id_cols(k)
    total = count(cols, rhs, 6)
    kernel_dim = math.gcd(k, m)  # the kernel is GF(2^gcd(k, 6n))
    if total not in (0, 1 << kernel_dim):
        raise ConsistencyError(f"{which}: {total} solutions, not 0 or 2^{kernel_dim}")
    if not total:
        return RootCounts(which, 0, 0, 0, 0)
    return _by_subfield(which, {6: total, 1: count(cols, rhs, 1), 2: count(cols, rhs, 2),
                                3: count(cols, rhs, 3)})


def permutation_cycles(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of a permutation of range(len(perm)), fixed points included;
    each cycle starts from its least point, in order of that point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        k = start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles
