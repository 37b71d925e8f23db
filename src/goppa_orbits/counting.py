"""Orbit counts: closed-form fixed-point formulas, the averaged orbit bound,
and independent oracles (global census, root counts, class-equation checks).

The closed forms are pure integer formulas valid for prime n > 3. Every one
of them is paired with an oracle that recomputes the same quantity from the
group action itself, with no shared formulas: the census and the fixed-point
oracle enumerate orbits affine class by affine class over a visited bit array
indexed by the points of P^4(GF(2^n)), and the class equations read the
Frobenius action on an orbit's 2^n + 1 affine classes off the same index; the
root-count oracles solve GF(2)-linear systems, or, for the multiplicative
equation eq_41, take gcds of GF(2) polynomials. Each orbit is represented by
an element of its least class rank, the class the sweep claims for it. The
sweeps are feasible through n = 5, eq_41 through n = 8 and the linear solvers
through n = 10 (64-bit elements; eq_3n through n = 7, where its 2^(3n) roots
are enumerated); larger n is refused with a cost estimate rather than
attempted.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf2poly, mobius
from .gf2tower import (
    LinearizedMap,
    Tower,
    _apply_cols,
    _ColumnSolver,
    frobenius_linearized,
    identity_linearized,
    linearized_sum,
    solve_affine_linearized,
)

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
    "fixed_orbit_representatives",
    "ROOT_EQUATIONS",
    "RootCounts",
    "root_count_oracle",
    "class_equation_check",
    "permutation_cycles",
    "MAX_SWEEP_N",
]

MAX_SWEEP_N = 5

ROOT_EQUATIONS = ("eq_3n", "eq_2n_affine", "eq_41", "eq_deg8", "fixed_field_64")


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
    """Upper bound on inequivalent extended codes: the averaged fixed-point count.

    Evaluates both the explicit phi-weighted divisor sum and the closed-form
    numerator, requiring exact agreement and exact divisibility by 6n.
    """
    _require_odd_prime(n)
    numerator = burnside_numerator(n)
    phi_sum = sum(row["term"] for row in burnside_decomposition(n))
    if phi_sum != numerator:
        raise ConsistencyError(
            f"divisor sum {phi_sum} differs from closed form {numerator} at n={n}")
    if numerator % (6 * n):
        raise ConsistencyError(f"closed form not divisible by 6n at n={n}")
    return numerator // (6 * n)


# ------------------------------------------------------------ visited-bit ops


_WORD_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mark_bits(words: np.ndarray, idx: np.ndarray) -> None:
    """Set bits idx in the packed array; unbuffered, so in-word collisions add up."""
    np.bitwise_or.at(words, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))


def _next_unvisited(words: np.ndarray, start_word: int) -> tuple[int, int | None]:
    """First zero bit at or after start_word; returns (word_cursor, index or None)."""
    w = start_word
    total = words.size
    chunk_words = 1 << 14
    while w < total:
        chunk = words[w:w + chunk_words]
        nz = np.flatnonzero(chunk != _WORD_FULL)
        if nz.size:
            wi = w + int(nz[0])
            word = int(words[wi])
            inv = ~word & 0xFFFFFFFFFFFFFFFF
            bit = (inv & -inv).bit_length() - 1
            return wi, (wi << 6) | bit
        w += chunk_words
    return total, None


def _any_bit(words: np.ndarray, idx: np.ndarray) -> bool:
    return bool(((words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)).any())


def _sweep_cost_check(n: int) -> None:
    if n > MAX_SWEEP_N:
        q = 1 << n
        raise InfeasibleError(
            f"n={n}: the census and fixed-point oracle sweep the "
            f"{(q ** 5 - 1) // (q - 1)} classes of P^4(GF(2^{n})); they are "
            f"limited to n <= {MAX_SWEEP_N}")


# ------------------------------------------------------------ affine classes


@dataclass(frozen=True, eq=False)
class _ClassIndex:
    """Affine classes {e*beta + f : e in GF(q)*, f in GF(q)} as points of P^4(GF(q)).

    A class is a point of the 5-dimensional GF(q)-space GF(q^6)/GF(q).
    Coordinates use the GF(2)-basis gamma_k * theta^j (k < n, j < 6) with
    gamma_k = embed_base(2^k) and theta = x, the generator of the big field;
    base-field coordinate j of an element sits in bits [jn, jn + n). Dropping
    coordinate 0 quotients by GF(q), and scaling the highest nonzero
    coordinate (index l) to 1 picks the projective point. Points are ranked
    by l, then by the lower coordinates read as one integer.
    """

    n: int
    count: int  # (q^5 - 1) / (q - 1) points
    to_coords: list[np.ndarray]  # byte tables: element -> coordinates
    from_coords: tuple[int, ...]  # columns: coordinate bit -> element
    div: np.ndarray  # div[a, c] = c / a in GF(q) on base encodings; div[a, 0] = 0
    offsets: np.ndarray  # rank of the first point with leading index l

    def classes(self, x: np.ndarray) -> np.ndarray:
        """Class rank of each element; x must avoid GF(q)."""
        n = self.n
        shifts = np.arange(0, 5 * n, n, dtype=np.int64)
        v = Tower.apply_tables(self.to_coords, x) >> n
        lead = (np.frexp(v.astype(np.float64))[1] - 1) // n  # frexp exponent = bit length
        coords = (v[:, None] >> shifts) & ((1 << n) - 1)
        scale = (v >> lead * n) & ((1 << n) - 1)
        point = np.bitwise_or.reduce(self.div[scale[:, None], coords] << shifts, axis=1)
        return point - (np.int64(1) << lead * n) + self.offsets[lead]

    def element(self, rank: int) -> int:
        """One element of the class with the given rank."""
        lead = int(np.searchsorted(self.offsets, rank, side="right")) - 1
        point = (1 << lead * self.n) + rank - int(self.offsets[lead])
        return _apply_cols(self.from_coords, point << self.n)


def _class_index(ctx: Tower) -> _ClassIndex:
    """Class tables of one tower (about 1.5 ms to build at n = 5), built once
    and kept in the tower's table cache."""
    index = ctx._np_tables.get(("class_index",))
    if index is not None:
        return index
    n, m = ctx.n, ctx.big_degree
    q = 1 << n
    gammas = [ctx.embed_base(1 << k) for k in range(n)]
    from_coords = tuple(ctx.mul(g, ctx.pow(2, j)) for j in range(6) for g in gammas)
    solver = _ColumnSolver(list(from_coords))
    if solver.kernel_basis:
        raise ConsistencyError("gamma_k * theta^j is not a basis of the big field")
    to_coords = ctx._byte_tables([solver.solve(1 << j) for j in range(m)])

    for g in range(2, q):  # least generator of GF(q)*, on base encodings
        exp = [1]
        while len(exp) < q:
            nxt = gf2poly.mod(gf2poly.mul(exp[-1], g), ctx.modulus_base)
            if nxt == 1:
                break
            exp.append(nxt)
        if len(exp) == q - 1:
            break
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    div = np.array(exp, dtype=np.int64)[(log[None, :] - log[:, None]) % (q - 1)]
    div[:, 0] = 0
    index = ctx._np_tables[("class_index",)] = _ClassIndex(
        n=n,
        count=(q ** 5 - 1) // (q - 1),
        to_coords=to_coords,
        from_coords=from_coords,
        div=div,
        offsets=np.array([(q ** l - 1) // (q - 1) for l in range(5)], dtype=np.int64),
    )
    return index


# ------------------------------------------------------------------ the sweep


class SweepRecord(NamedTuple):
    """One semi-linear orbit: representative, linear-orbit count, fixed-power mask."""

    rep: int
    pgl_orbits: int
    fixed_mask: int  # bit p set iff the Frobenius power p fixes each member orbit


@dataclass(frozen=True)
class OrbitCensus:
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


def _run_sweep(ctx: Tower) -> OrbitCensus:
    """Enumerate every semi-linear orbit on the degree-6 set, by affine class.

    Each linear orbit is the disjoint union of 2^n + 1 affine classes, and
    Frobenius maps classes to classes, so the visited array has one bit per
    point of P^4(GF(q)); the q + 2 classes inside GF(q^2) and GF(q^3) are
    marked first. Each claimed class is the first unvisited one, hence the
    least class rank of its orbit, and its element index.element(claimed)
    is the orbit's representative; records come out in ascending class rank.
    The claimed class yields a linear orbit through its affine-suborbit
    representatives; the other member orbits are its Frobenius images,
    deduplicated by the first power t with sigma^t(alpha) back in the base
    orbit. Fixed-power flags come from class membership tests and are
    cross-checked against the cyclic structure (power p fixes the orbit iff
    t divides p). Runs in one thread.
    """
    n, m = ctx.n, ctx.big_degree
    _sweep_cost_check(n)
    start = time.perf_counter()
    index = _class_index(ctx)
    words = np.zeros(-(-index.count // 64), dtype=np.uint64)
    _mark_bits(words, np.arange(index.count, words.size << 6, dtype=np.int64))
    low = np.union1d(ctx.subfield_span_array(2 * n), ctx.subfield_span_array(3 * n))
    _mark_bits(words, index.classes(np.setdiff1d(low, ctx.subfield, assume_unique=True)))
    degree_six_classes = (words.size << 6) - int(np.bitwise_count(words).sum())
    orbit_size = (1 << 3 * n) - (1 << n)

    records: list[SweepRecord] = []
    cursor = 0
    while True:
        cursor, claimed = _next_unvisited(words, cursor)
        if claimed is None:
            break
        alpha = index.element(claimed)
        reps = np.array(mobius.suborbit_representatives(ctx, alpha), dtype=np.int64)
        images = ctx.conjugates_vec(reps)  # row i: class reps of sigma^i(orbit)
        classes = index.classes(images.reshape(-1)).reshape(m, reps.size)
        base = np.unique(classes[0])
        if base.size != reps.size or claimed not in base:
            raise ConsistencyError("linear orbit does not split into 2^n + 1 classes")
        inside = np.isin(classes[1:, 0], base)  # sigma^p(alpha) for 1 <= p < 6n
        fixed_mask = sum(1 << p for p in range(1, m) if inside[p - 1])
        t = next((p for p in range(1, m) if (fixed_mask >> p) & 1), m)
        if fixed_mask != sum(1 << p for p in range(t, m, t)):
            raise ConsistencyError(
                "membership flags break the cyclic orbit structure")

        members = classes[:t].reshape(-1)
        if np.unique(members).size != members.size or _any_bit(words, members):
            raise ConsistencyError("claimed orbit overlaps a visited class")
        if int(members.min()) != claimed:
            raise ConsistencyError("claimed class is not the least class of its orbit")
        _mark_bits(words, members)
        records.append(SweepRecord(rep=alpha, pgl_orbits=t, fixed_mask=fixed_mask))

    if int(np.bitwise_count(words).sum()) != words.size << 6:
        raise ConsistencyError("sweep terminated with unvisited classes")
    pgl_orbit_count = sum(r.pgl_orbits for r in records)
    if pgl_orbit_count * ((1 << n) + 1) != degree_six_classes:
        raise ConsistencyError(
            f"{pgl_orbit_count} linear orbits do not cover "
            f"{degree_six_classes} degree-6 classes")
    s_size = (1 << m) - low.size
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
    """The sweep of one tower, cached by (n, modulus_base, modulus_big).

    The only reader and writer of the cache; fresh=True recomputes and
    refreshes the entry.
    """
    key = (ctx.n, ctx.modulus_base, ctx.modulus_big)
    if fresh or key not in _SWEEPS:
        _SWEEPS[key] = _run_sweep(ctx)
    return _SWEEPS[key]


# ---------------------------------------------------------------- the census


def global_orbit_census(ctx: Tower, workers: int = 1) -> OrbitCensus:
    """Run a full sweep and tabulate the semi-linear orbits.

    Always recomputes, and the fresh result refills the sweep cache used by
    the fixed-point oracle. The sweep runs in one thread; workers is
    validated only.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    return _sweep(ctx, fresh=True)


def fixed_point_oracle(n: int, d: int, ctx: Tower) -> int:
    """Count linear-group orbits fixed by the d-th Frobenius power, by sweep.

    Exhaustive and formula-free: orbit membership of sigma^d(rep) is tested
    against the enumerated orbit, once per orbit class, and every member
    orbit of a class shares the class flags by conjugation.
    """
    if ctx.n != n:
        raise ValueError("context does not match n")
    _sweep_cost_check(n)
    sweep = _sweep(ctx)
    d_red = d % (6 * n)
    if d_red == 0:
        return sweep.pgl_orbit_count
    return sum(r.pgl_orbits for r in sweep.records
               if (r.fixed_mask >> d_red) & 1)


def fixed_orbit_representatives(ctx: Tower, d: int,
                                limit: int | None = None) -> list[int]:
    """Census representatives of the orbits fixed setwise by the d-th
    Frobenius power, in ascending class rank."""
    sweep = _sweep(ctx)
    d_red = d % (6 * ctx.n)
    if d_red == 0:
        reps = [r.rep for r in sweep.records]
    else:
        reps = [r.rep for r in sweep.records if (r.fixed_mask >> d_red) & 1]
    return reps[:limit] if limit is not None else reps


# ---------------------------------------------------------------- root counts


@dataclass(frozen=True)
class RootCounts:
    """Root tallies of one equation, split by where the roots live."""

    equation: str
    total: int
    in_degree_six: int
    in_subfield_2n: int
    in_subfield_3n: int


def _classify_roots(ctx: Tower, which: str, sols: np.ndarray) -> RootCounts:
    if sols.size == 0:
        return RootCounts(which, 0, 0, 0, 0)
    n = ctx.n
    in2 = ctx.frobenius_vec(sols, 2 * n) == sols
    in3 = ctx.frobenius_vec(sols, 3 * n) == sols
    return RootCounts(
        equation=which,
        total=int(sols.size),
        in_degree_six=int((~in2 & ~in3).sum()),
        in_subfield_2n=int(in2.sum()),
        in_subfield_3n=int(in3.sum()),
    )


def _affine_equation_map(ctx: Tower, which: str) -> tuple[LinearizedMap, int]:
    n, m = ctx.n, ctx.big_degree
    ident = identity_linearized(m)
    if which == "eq_3n":
        return linearized_sum(frobenius_linearized(ctx, 3 * n), ident), 1
    if which == "eq_2n_affine":
        return linearized_sum(frobenius_linearized(ctx, 2 * n), ident), 1
    if which == "eq_deg8":
        return linearized_sum(frobenius_linearized(ctx, 3), ident), 1
    if which == "fixed_field_64":
        return linearized_sum(frobenius_linearized(ctx, 6), ident), 0
    raise ValueError(f"unknown equation {which!r}")


def root_count_oracle(ctx: Tower, which: str) -> RootCounts:
    """Count roots of one of the named equations, splitting by subfield.

    The affine-linearized equations are solved exactly by GF(2) linear
    algebra (n <= 10); eq_41 is counted by polynomial gcds over GF(2)
    (n <= 8).
    """
    if which not in ROOT_EQUATIONS:
        raise ValueError(f"unknown equation {which!r}; choose from {ROOT_EQUATIONS}")
    if ctx.big_degree > 63:
        raise InfeasibleError(
            f"n={ctx.n}: the vectorised root paths hold elements of GF(2^{ctx.big_degree}) "
            "in 64-bit integers; they are limited to n <= 10")
    if which == "eq_41":
        if ctx.n > 8:
            raise InfeasibleError(
                f"n={ctx.n}: eq_41 takes gcds of degree-{(1 << 2 * ctx.n) + 1} "
                "polynomials over GF(2); it is limited to n <= 8")
        return _eq41_counts(ctx.n)
    lmap, rhs = _affine_equation_map(ctx, which)
    kernel_dim = len(_ColumnSolver(list(lmap.cols)).kernel_basis)
    if kernel_dim > 22:
        raise InfeasibleError(
            f"n={ctx.n}: solution space 2^{kernel_dim} too large to enumerate; "
            "eq_3n is limited to n <= 7")
    sols = solve_affine_linearized(lmap, rhs)
    return _classify_roots(ctx, which, sols)


def _eq41_counts(n: int) -> RootCounts:
    """Root tallies of P = x^(2^(2n)+1) + x + 1 from GF(2) polynomial gcds.

    P' = x^(2^(2n)) + 1 is coprime to P, so P is squarefree and has exactly
    deg gcd(P, x^(2^k) + x) roots in GF(2^k). One chain of 6n squarings
    mod P gives x^(2^k) for k = n, 2n, 3n and 6n; GF(2^n) is the
    intersection of GF(2^(2n)) and GF(2^(3n)).
    """
    e = 1 << 2 * n
    p = (1 << e + 1) | 0b11
    if gf2poly.gcd(p, (1 << e) | 1) != 1:
        raise ConsistencyError(f"x^(2^{2 * n}+1) + x + 1 is not squarefree")
    roots = {}
    r = 0b10
    for k in range(1, 6 * n + 1):
        r = gf2poly.mod(gf2poly.mul(r, r), p)
        if k % n == 0:
            roots[k // n] = gf2poly.degree(gf2poly.gcd(p, r ^ 0b10))
    return RootCounts(
        equation="eq_41",
        total=roots[6],
        in_degree_six=roots[6] - roots[2] - roots[3] + roots[1],
        in_subfield_2n=roots[2],
        in_subfield_3n=roots[3],
    )


# ------------------------------------------------------- class-equation checks


def class_equation_check(ctx: Tower, alpha: int, d: int) -> tuple[int, ...]:
    """Cycle-type of the d-th Frobenius power acting on the affine suborbits.

    Requires the power to fix the orbit of alpha as a set. The suborbits are
    the affine classes of the 2^n + 1 suborbit representatives; the power
    maps the class of rep k to the class of its image, read off by class
    rank. The returned parts sum to 2^n + 1 and each divides the order of
    the acting element.
    """
    if not ctx.is_degree_six(alpha):
        raise ValueError("alpha must have degree 6 over the base field")
    index = _class_index(ctx)
    reps = np.array(mobius.suborbit_representatives(ctx, alpha), dtype=np.int64)
    position = {int(c): k for k, c in enumerate(index.classes(reps))}
    images = index.classes(ctx.frobenius_vec(reps, d)).tolist()
    if images[0] not in position:
        raise ValueError("the Galois power does not fix the orbit of alpha")
    perm = [position[c] for c in images]

    order = (6 * ctx.n) // math.gcd(6 * ctx.n, d)
    parts = sorted(len(cycle) for cycle in permutation_cycles(perm))
    if sum(parts) != (1 << ctx.n) + 1:
        raise ConsistencyError("suborbit cycle type does not cover the partition")
    if any(order % part for part in parts):
        raise ConsistencyError("cycle length does not divide the element order")
    return tuple(parts)


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
