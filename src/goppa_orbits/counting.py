"""Orbit counts: closed-form fixed-point formulas, the averaged orbit bound,
and independent oracles (global census, fixed points, root counts).

The closed forms are pure integer formulas valid for prime n > 3. Reports
print them in full, so the commands refuse n > `MAX_CLOSED_FORM_N` = 701, the
last prime whose closed forms stay below 640 digits, the least limit that
PYTHONINTMAXSTRDIGITS accepts for int-to-string conversion. Every one
of them is paired with an oracle that recomputes the same quantity from the
group action itself, with no shared formulas: the census and the fixed-point
oracle enumerate orbits affine class by affine class over a visited bit array
indexed by the points of P^4(GF(2^n)); the element-level class equations
that check this decomposition are test oracles in `tests/`. The
root-count oracles count by rank, one stacked GF(2)-linear system per
subfield, or, for the multiplicative equation eq_41, take gcds of GF(2)
polynomials. Each orbit is represented by an element of its least class
rank, the class the sweep claims for it. Each round of the sweep claims a
batch of the least unvisited classes and drops a candidate whose orbit an
earlier one of the round already holds, so every accepted class is still
the least of its orbit. A round takes the suborbit representatives of the
whole batch in norm form (`mobius`), reads the class coordinates of all 6n
Frobenius images through one stack of fused byte tables and marks the new
classes word by word. The sweeps are limited to
n <= 7 (about 28 s and 80 MiB at n = 7 on 2 vCPU) and eq_41 to n <= 8;
larger n is refused with a cost estimate rather than attempted. The linear
root counts list no root, so they run up to the tower's cap, n <= 16.
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
from .gf2tower import _MAX_N, Tower, _ColumnSolver, solve_affine_linearized

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
    "RootCounts",
    "root_count_oracle",
    "permutation_cycles",
    "MAX_SWEEP_N",
    "MAX_ROOTS_N",
    "MAX_EQ41_N",
    "MAX_CLOSED_FORM_N",
]

MAX_SWEEP_N = 7
MAX_ROOTS_N = _MAX_N  # the linear root counts are ranks: any tower will do
MAX_EQ41_N = 8
# the closed forms grow as 2^(3n): at n = 701 they have 634 digits, below the
# least limit (640) that PYTHONINTMAXSTRDIGITS accepts for printing an int
MAX_CLOSED_FORM_N = 701

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
_BLOCK = 1 << 14  # elements per block of the large sweep arrays, to stay in cache


def _mark_bits(words: np.ndarray, idx: np.ndarray) -> int:
    """Set bits idx in the packed array and return how many were clear.

    Works through idx in blocks of _BLOCK: sorts each block, ORs each
    word's bits together with `reduceat`, and counts new bits on the touched
    words only; a bit given twice, or one already set, is not counted.
    """
    idx = idx.reshape(-1)
    new_bits = 0
    for lo in range(0, idx.size, _BLOCK):
        block = np.sort(idx[lo:lo + _BLOCK])
        word = block >> 6
        starts = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
        touched = word[starts]
        old = words[touched]
        new = old | np.bitwise_or.reduceat(
            np.uint64(1) << (block & 63).astype(np.uint64), starts)
        words[touched] = new
        new_bits += int(np.bitwise_count(new ^ old).sum())
    return new_bits


_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_CHUNK_WORDS = 1 << 14


def _first_unvisited(words: np.ndarray, start_word: int,
                     count: int) -> tuple[int, np.ndarray]:
    """The first `count` zero bits at or after start_word (fewer at the end),
    ascending, and the word of the first one: every word before it is full."""
    found, cursor, w = [], words.size, start_word
    while w < words.size and count:
        chunk = words[w:w + _CHUNK_WORDS]
        open_words = np.flatnonzero(chunk != _WORD_FULL)[:count]
        if open_words.size:
            cursor = min(cursor, w + int(open_words[0]))
            word, bit = np.nonzero((chunk[open_words, None] & _BITS) == 0)
            idx = ((open_words[word] + w) << 6 | bit)[:count]
            found.append(idx)
            count -= idx.size
        w += _CHUNK_WORDS
    return cursor, np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _sweep_cost_check(n: int) -> None:
    """Refuse n > MAX_SWEEP_N; the refusal counts the classes as a 2^k
    expression, which stays one short line for any n."""
    if n > MAX_SWEEP_N:
        raise InfeasibleError(
            f"n={n}: the census and fixed-point oracle sweep the "
            f"(2^{5 * n} - 1)/(2^{n} - 1) classes of P^4(GF(2^{n})); they are "
            f"limited to n <= {MAX_SWEEP_N}")


# ------------------------------------------------------------ affine classes


@dataclass(frozen=True, eq=False)
class _ClassIndex:
    """Affine classes {e*beta + f : e in GF(q)*, f in GF(q)} as points of P^4(GF(q)).

    A class is a point of the 5-dimensional GF(q)-space GF(q^6)/GF(q).
    Coordinates use the GF(2)-basis gamma_k * theta^j (k < n, j < 6) with
    gamma_k = embed_base(2^k) and theta = x, the generator of the big field;
    base-field coordinate j of an element sits in bits [jn, jn + n).
    Dropping coordinate 0 quotients by GF(q) and leaves coordinate j at bits
    [(j - 1)n, jn); scaling the highest nonzero one (index l) to 1 picks the
    projective point. Points are ranked by l, then by the lower coordinates
    read as one integer.
    """

    n: int
    count: int  # (q^5 - 1) / (q - 1) points
    conjugates: np.ndarray  # (bytes, 256, 6n) byte tables: x -> quotient coordinates of x^(2^i)
    from_coords: list[np.ndarray]  # byte tables: coordinates -> element
    div: tuple[np.ndarray, ...]  # div[j][a * q + c] = (c / a) << jn in GF(q), j < 4; 0 for c = 0
    base: np.ndarray  # offsets[l] less 1 << ln, the leading coordinate's own div term (l < 4)
    offsets: np.ndarray  # rank of the first point with leading index l

    def ranks(self, v: np.ndarray) -> np.ndarray:
        """Class rank of each quotient coordinate vector (nonzero), elementwise.

        v holds c_0..c_4, c_j in bits [jn, jn + n), and a = c_l is the highest
        nonzero one. The rank is base[l] plus (c_j / a) << jn for j < 4: j = l
        adds the 1 << ln that base takes back out, j > l adds 0, and c_4 is
        never below the leading coordinate.
        """
        n, mask = self.n, (1 << self.n) - 1
        lead = (np.frexp(v.astype(np.float64))[1] - 1) // n  # frexp exponent = bit length
        row = ((v >> lead * n) & mask) << n  # div row of the leading coordinate
        point = self.base[lead]
        for j, div in enumerate(self.div):
            point += div[row | ((v >> j * n) & mask)]
        return point

    def classes(self, x: np.ndarray) -> np.ndarray:
        """Class rank of each element, elementwise; x must avoid GF(q)."""
        return self.ranks(Tower.apply_tables(self.conjugates[..., 0], x))

    def conjugate_classes(self, x: np.ndarray) -> np.ndarray:
        """Class ranks of all 6n Frobenius images of each element, along a new
        last axis; x must avoid GF(q). Works in blocks of about _BLOCK images,
        so that the temporaries stay in cache."""
        m = self.conjugates.shape[-1]
        flat = x.reshape(-1)
        out = np.empty((flat.size, m), dtype=np.int64)
        step = max(1, _BLOCK // m)
        for lo in range(0, flat.size, step):
            out[lo:lo + step] = self.ranks(Tower.apply_tables(self.conjugates, flat[lo:lo + step]))
        return out.reshape(x.shape + (m,))

    def elements(self, ranks: np.ndarray) -> np.ndarray:
        """One element of each class with the given rank."""
        lead = np.searchsorted(self.offsets, ranks, side="right") - 1
        point = (np.int64(1) << lead * self.n) + ranks - self.offsets[lead]
        return Tower.apply_tables(self.from_coords, point << self.n)


def _class_index(ctx: Tower) -> _ClassIndex:
    """Class tables of one tower (about 2.5 ms to build at n = 5, most of it
    the fused stack `conjugates`), built once and kept in the tower's table
    cache."""
    index = ctx._np_tables.get(("class_index",))
    if index is not None:
        return index
    n, m = ctx.n, ctx.big_degree
    q = 1 << n
    gammas = [ctx.embed_base(1 << k) for k in range(n)]
    # theta^j = x^j is the bitmask 1 << j, already reduced as j < 6 <= 6n
    from_coords = tuple(ctx.mul(g, 1 << j) for j in range(6) for g in gammas)
    solver = _ColumnSolver(list(from_coords))
    if solver.kernel_basis:
        raise ConsistencyError("gamma_k * theta^j is not a basis of the big field")
    conjugates = ctx.conjugate_tables([solver.solve(1 << j) >> n for j in range(m)])

    exp = ctx.base_logs().exp
    log = np.zeros(q, dtype=np.int64)
    log[list(exp)] = np.arange(q - 1)
    div = np.array(exp, dtype=np.int64)[(log[None, :] - log[:, None]) % (q - 1)]
    div[:, 0] = 0
    div = div.reshape(-1)
    offsets = np.array([(q ** l - 1) // (q - 1) for l in range(5)], dtype=np.int64)
    index = ctx._np_tables[("class_index",)] = _ClassIndex(
        n=n,
        count=(q ** 5 - 1) // (q - 1),
        conjugates=conjugates,
        from_coords=ctx._byte_tables(from_coords),
        div=tuple(div << j * n for j in range(4)),
        base=offsets - np.where(np.arange(5) < 4, np.int64(1) << np.arange(5) * n, 0),
        offsets=offsets,
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
    rank of the representatives. `candidates` counts the classes the sweep
    claimed, accepted or dropped."""

    n: int
    records: tuple[SweepRecord, ...]
    pgl_orbit_size: int
    pgl_orbit_count: int
    elements_visited: int
    elapsed_ms: float
    candidates: int

    @property
    def orbit_count(self) -> int:
        return len(self.records)

    @property
    def orbit_sizes(self) -> tuple[tuple[int, int], ...]:
        """(size, multiplicity) pairs, ascending by size."""
        hist = Counter(r.pgl_orbits * self.pgl_orbit_size for r in self.records)
        return tuple(sorted(hist.items()))


def _low_field_class_elements(ctx: Tower) -> np.ndarray:
    """One element of each of the q + 2 affine classes inside GF(q^2) and
    GF(q^3), q = 2^n. GF(q^2) minus GF(q) is one class, of any v outside GF(q).
    For u in GF(q^3) outside GF(q), 1, u and u^2 are a GF(q)-basis of GF(q^3), so
    GF(q^3) minus GF(q) is the q + 1 classes of u^2 and u + c u^2, c in GF(q)."""
    v, u = (next(b for b in ctx._fixed_field_basis(bits) if ctx.frobenius(b, ctx.n) != b)
            for bits in (2 * ctx.n, 3 * ctx.n))
    u2 = ctx.square(u)
    return np.array([v, u2] + [u ^ ctx.mul(c, u2) for c in ctx.subfield], dtype=np.int64)


_MAX_BATCH = 32  # candidates per round: (6n)(2^n + 1) class ranks each


def _run_sweep(ctx: Tower) -> OrbitCensus:
    """Enumerate every semi-linear orbit on the degree-6 set, by affine class.

    Each linear orbit is the disjoint union of 2^n + 1 affine classes, and
    Frobenius maps classes to classes, so the visited array has one bit per
    point of P^4(GF(q)); the q + 2 classes inside GF(q^2) and GF(q^3) are
    marked first, from one element each.

    Each round claims the first B unvisited classes (B starts at
    _MAX_BATCH, halves when more than half of a round is dropped and doubles
    back while at most a quarter is). Their elements index.elements(claimed)
    yield linear orbits through their affine-suborbit representatives, all
    taken in one pass; the other member orbits are the Frobenius images,
    deduplicated by the first power t with sigma^t(alpha) back in the base
    orbit, and `_ClassIndex.conjugate_classes` ranks all images at once. A
    candidate is dropped when an earlier candidate of the round has
    the same orbit, seen as the same least class over all 6n images. An
    accepted candidate is still the least class of its orbit: every
    unvisited class below it is an earlier candidate of the round, from
    another orbit. So records come out in ascending class rank, each
    represented by the element of its claimed class.

    Checks: the q + 2 set-up classes are distinct; each base orbit has
    2^n + 1 distinct classes including the claimed one; the fixed-power
    flags, from class membership tests, have the cyclic structure (power p
    fixes the orbit iff t divides p); each accepted class is its orbit's
    least; the visited count grows by exactly the classes marked, so
    accepted orbits neither overlap visited classes nor each other; and at
    the end every class is visited and both size identities hold, with
    |GF(q^2) u GF(q^3)| = q^2 + q^3 - q. Runs in one thread.
    """
    n, m = ctx.n, ctx.big_degree
    q = 1 << n
    _sweep_cost_check(n)
    start = time.perf_counter()
    index = _class_index(ctx)
    words = np.zeros(-(-index.count // 64), dtype=np.uint64)
    visited = _mark_bits(words, np.arange(index.count, words.size << 6, dtype=np.int64))
    if _mark_bits(words, index.classes(_low_field_class_elements(ctx))) != q + 2:
        raise ConsistencyError("GF(q^2) and GF(q^3) do not hold q + 2 distinct classes")
    visited += q + 2
    degree_six_classes = index.count - (q + 2)
    orbit_size = (1 << 3 * n) - (1 << n)
    powers = np.arange(m)
    flag_bits = np.int64(1) << powers[1:]  # fixed_mask bit p, 1 <= p < 6n
    cyclic = np.array([sum(1 << p for p in range(t, m, t)) for t in range(1, m + 1)])

    records: list[SweepRecord] = []
    candidates = 0
    batch = _MAX_BATCH
    cursor = 0
    while True:
        cursor, claimed = _first_unvisited(words, cursor, batch)
        k = claimed.size
        if k == 0:
            break
        candidates += k
        alphas = index.elements(claimed)
        reps = mobius.suborbit_representatives(ctx, alphas)  # (k, 2^n + 1)
        # [j, r, i]: class of sigma^i(rep r of orbit j)
        classes = index.conjugate_classes(reps)
        base = np.sort(classes[:, :, 0], axis=1)
        if ((base[:, 1:] == base[:, :-1]).any()
                or not (base == claimed[:, None]).any(axis=1).all()):
            raise ConsistencyError("linear orbit does not split into 2^n + 1 classes")
        inside = (classes[:, :1, 1:] == classes[:, :, :1]).any(axis=1)  # sigma^p(alpha_j)
        fixed_mask = inside @ flag_bits
        t = np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, m)
        if (fixed_mask != cyclic[t - 1]).any():
            raise ConsistencyError(
                "membership flags break the cyclic orbit structure")

        least = classes.min(axis=1)  # [j, p]: least class of sigma^p(orbit j)
        orbit_least = least.min(axis=1)  # equal iff two candidates share an orbit
        accepted = ~np.triu(orbit_least[:, None] == orbit_least, 1).any(axis=0)
        rows = (powers < t[:, None]) & accepted[:, None]  # member orbits of accepted ones
        if (np.where(rows, least, index.count).min(axis=1) != claimed)[accepted].any():
            raise ConsistencyError("claimed class is not the least class of its orbit")
        members = classes.transpose(0, 2, 1)[rows]
        if _mark_bits(words, members) != members.size:
            raise ConsistencyError(
                "claimed orbits overlap each other or a visited class")
        visited += members.size
        for j in np.flatnonzero(accepted).tolist():
            records.append(SweepRecord(
                rep=int(alphas[j]), pgl_orbits=int(t[j]), fixed_mask=int(fixed_mask[j])))
        drops = k - int(accepted.sum())
        if 4 * drops <= k:
            batch = min(2 * batch, _MAX_BATCH)
        elif 2 * drops > k:
            batch = max(batch // 2, 1)

    if visited != words.size << 6 or int(np.bitwise_count(words).sum()) != visited:
        raise ConsistencyError("sweep terminated with unvisited classes")
    pgl_orbit_count = sum(r.pgl_orbits for r in records)
    if pgl_orbit_count * (q + 1) != degree_six_classes:
        raise ConsistencyError(
            f"{pgl_orbit_count} linear orbits do not cover "
            f"{degree_six_classes} degree-6 classes")
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
        candidates=candidates,
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


def fixed_point_oracle(ctx: Tower, d: int) -> int:
    """Count linear-group orbits fixed by the d-th Frobenius power, by sweep.

    Exhaustive and formula-free: orbit membership of sigma^d(rep) is tested
    against the enumerated orbit, once per orbit class, and every member
    orbit of a class shares the class flags by conjugation.
    """
    _sweep_cost_check(ctx.n)
    sweep = _sweep(ctx)
    d_red = d % ctx.big_degree
    if d_red == 0:
        return sweep.pgl_orbit_count
    return sum(r.pgl_orbits for r in sweep.records
               if (r.fixed_mask >> d_red) & 1)


# ---------------------------------------------------------------- root counts


@dataclass(frozen=True)
class RootCounts:
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
    if which == "eq_41" and n > MAX_EQ41_N:
        raise InfeasibleError(
            f"n={n}: eq_41 takes gcds of degree-(2^{2 * n} + 1) "
            f"polynomials over GF(2); it is limited to n <= {MAX_EQ41_N}")
    if n > MAX_ROOTS_N:
        raise InfeasibleError(
            f"n={n}: the root counts work in the tower GF(2^{6 * n}), whose "
            f"construction enumerates GF(2^{n}); they are limited to n <= {MAX_ROOTS_N}")


def root_count_oracle(ctx: Tower, which: str) -> RootCounts:
    """Count roots of one of the named equations, splitting by subfield.

    The affine-linearized equations, each L(x) = x^(2^k) + x = rhs, are
    counted by rank. The roots in GF(2^(jn)) solve one stacked GF(2) system,
    L(x) = rhs beside x^(2^(jn)) + x = 0, so they number 0 or 2^(kernel
    dimension); the whole field (j = 6) goes first, and without a root there
    the subfields are not solved. eq_41 is counted by polynomial gcds over
    GF(2) (n <= 8).
    """
    _roots_cost_check(ctx.n, which)
    if which == "eq_41":
        return _eq41_counts(ctx.n)
    n, m = ctx.n, ctx.big_degree
    k, rhs = {"eq_3n": (3 * n, 1), "eq_2n_affine": (2 * n, 1),
              "eq_deg8": (3, 1), "fixed_field_64": (6, 0)}[which]
    cols = ctx._frob_plus_id_cols(k)

    def count(j: int) -> int:
        sub = ctx._frob_plus_id_cols(j * n)  # all zero at j = 6
        coset = solve_affine_linearized([c | s << m for c, s in zip(cols, sub)], rhs)
        return 0 if coset is None else 1 << len(coset[1])

    total = count(6)
    kernel_dim = math.gcd(k, m)  # the kernel is GF(2^gcd(k, 6n))
    if total not in (0, 1 << kernel_dim):
        raise ConsistencyError(f"{which}: {total} solutions, not 0 or 2^{kernel_dim}")
    if not total:
        return RootCounts(which, 0, 0, 0, 0)
    return _by_subfield(which, {6: total, 1: count(1), 2: count(2), 3: count(3)})


def _eq41_counts(n: int) -> RootCounts:
    """Root tallies of P = x^(2^(2n)+1) + x + 1 from GF(2) polynomial gcds.

    P' = x^(2^(2n)) + 1 is coprime to P, so P is squarefree and has exactly
    deg gcd(P, x^(2^k) + x) roots in GF(2^k). One chain of 6n squarings
    mod P gives x^(2^k) for k = n, 2n, 3n and 6n.
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
    return _by_subfield("eq_41", roots)


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
