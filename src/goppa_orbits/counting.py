"""Orbit counts: one closed-form fixed-point formula, the averaged orbit
count, and independent oracles (global census, fixed points, root counts).

`fixed_points_for_power` is the one source of fixed-point counts: a pure
integer formula in n and d that holds for every n, whose averaged sum is the
orbit count (`burnside_bound`) that `census` checks its scan against. At the
paper's hypotheses, a prime n > 3, which `has_closed_forms` is the one test
of, its terms are the paper's, and their phi-weighted sum is the paper's
numerator (`burnside_numerator`), which `bound` and `fixed --table` print
and check the sum against. Reports print the closed forms in full, so those
commands refuse n > `MAX_CLOSED_FORM_N` = 701, the last prime whose closed
forms stay below 640 digits, the least limit that PYTHONINTMAXSTRDIGITS
accepts for int-to-string conversion. Every one of the counts is paired
with an oracle that recomputes the same quantity from the group action
itself, with no shared formulas: the census and the fixed-point
oracle scan the affine classes of P^4(GF(2^n)) in ascending rank and key each
by an orbit invariant, the cross-ratio of the first four q-power conjugates,
until the orbits found hold every class (`scan._run_sweep` says why that stop
certifies the census). The scan counts N(t), the number of orbits with t
linear orbits, once per census, and the fixed-point oracle is the sum of
t N(t) over the t dividing d, one step per divisor of 6n, read off a
cached census (`OrbitCensus.t_counts`). The cache is keyed by n and the
two moduli, omitted ones resolved to their defaults as a tower resolves
them, so a fixed-point count off a cached census builds no tower: an
entry is written only off a tower that passed its constructor's checks
and a scan that passed its stop rule, and a miss builds one. The
element-level orbits and class equations that check them are test
oracles in `tests/`. The
root-count oracles count by rank: each GF(2)-linear equation is solved
once over GF(2^(6n)), as a coset of dimension d, and its points in each
subfield solve a system in d unknowns; the one equation that is not
linear, eq_41, is counted on the kernel of a linearized polynomial whose
nonzero elements map onto its roots. Each orbit is represented by an
element of its least class rank, the first class the scan meets; at n = 7
the scan meets the least class of every orbit in the first 0.4 % of the
ranks. The census and the oracle stay limited to n <= 7, where the n = 8
report would hold some 350,000 records; larger n is refused with a cost
estimate rather than attempted. The root counts list no root, so they run
as far as the towers' default moduli reach (`gf2tower._has_moduli`): every
n <= 16 and every prime n <= 127. At the primes n > 3 among them
(`has_closed_forms`) they check the paper's root lemmas.

The scan and its numpy kernel are the module `scan`, which this module
imports only inside `_sweep`, on a cache miss: importing it, the closed
forms, the root counts and a fixed-point count off a cached census compile
neither `scan` nor numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from . import gf2poly
from .gf2tower import (_MAX_N, _MODULI_SCOPE, Tower, _apply_cols, _check_n,
                       _has_moduli, _moduli, make_tower, solve_affine_linearized)

__all__ = [
    "InfeasibleError",
    "ConsistencyError",
    "euler_phi",
    "is_prime",
    "has_closed_forms",
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
MAX_ROOTS_N = _MAX_N  # every root count is a rank: any tower with default moduli will do
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


def has_closed_forms(n: int) -> bool:
    """Whether n meets the paper's hypotheses, a prime n > 3: the one test
    of where the paper states its bound's numerator and its root lemmas."""
    return n > 3 and is_prime(n)


def fixed_points_for_power(n: int, d: int) -> int:
    """L(d), the number of linear orbits fixed by sigma^d, for every n >= 1.

    sigma^d acts as sigma^d' with d' = gcd(d, 6n). GF(2^d') meets GF(q),
    q = 2^n, in GF(Q) with Q = 2^g and g = gcd(n, d'), and L(d) = F(e, Q)
    with e = d'/g, which divides 6: F(1, Q) = 0, F(2, Q) = Q - 2 for odd g
    and Q for even g, F(3, Q) = Q^2 - 1, F(6, Q) = Q^3 + Q - 1. At prime
    n > 3 these are the paper's terms (2^(3n) + 2^n - 1, 2^(2n) - 1,
    2^n - 2, 9 and 3 for the elements of order 1, 2, 3, n and 2n, and 0
    otherwise). F is checked here, not derived: the tests hold it against
    the paper's terms at every prime 5 <= n <= 701, the census at
    n = 2..7 and a twisted-norm count over GF(2^d) at n <= 10.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    d = math.gcd(d, 6 * n)
    g = math.gcd(n, d)
    q = 1 << g
    return {1: 0, 2: q - 2 if g % 2 else q, 3: q * q - 1, 6: q ** 3 + q - 1}[d // g]


def burnside_numerator(n: int) -> int:
    return (1 << 3 * n) + (1 << 2 * n) + 3 * (1 << n) + 12 * n - 18


def burnside_decomposition(n: int) -> list[dict]:
    """Per-divisor terms of the averaged fixed-point sum, for every n >= 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rows = []
    for d in (k for k in range(1, 6 * n + 1) if (6 * n) % k == 0):
        order = 6 * n // d
        fixed = fixed_points_for_power(n, d)
        phi = euler_phi(order)
        rows.append({
            "divisor": d,
            "order": order,
            "fixed_points": fixed,
            "phi": phi,
            "term": fixed * phi,
        })
    return rows


def burnside_bound(n: int) -> int:
    """The number of semi-linear orbits on the degree-6 set, for every
    n >= 1: the averaged fixed-point count (1/6n) sum phi(6n/d) L(d). At
    prime n > 3 it is the paper's bound on inequivalent extended codes."""
    return _average(n, burnside_decomposition(n))


def _average(n: int, rows: list[dict]) -> int:
    """The phi-weighted divisor sum of rows over 6n, which must divide it
    (ConsistencyError otherwise)."""
    phi_sum = sum(row["term"] for row in rows)
    if phi_sum % (6 * n):
        raise ConsistencyError(f"closed form not divisible by 6n at n={n}")
    return phi_sum // (6 * n)


def _burnside(n: int) -> tuple[list[dict], int]:
    """`burnside_decomposition` and the bound from it, for the reports that
    print the paper's numerator: n must be a prime n > 3 (ValueError
    otherwise), and the phi-weighted divisor sum must equal the numerator
    (ConsistencyError otherwise)."""
    if not has_closed_forms(n):
        raise ValueError("closed forms require a prime n greater than 3")
    rows = burnside_decomposition(n)
    numerator = burnside_numerator(n)
    phi_sum = sum(row["term"] for row in rows)
    if phi_sum != numerator:
        raise ConsistencyError(
            f"divisor sum {phi_sum} differs from closed form {numerator} at n={n}")
    return rows, _average(n, rows)


# ------------------------------------------------------------------ the scan


def _sweep_cost_check(n: int) -> None:
    """Refuse n > MAX_SWEEP_N; the refusal counts the classes as a 2^k
    expression, which stays one short line for any n."""
    if n > MAX_SWEEP_N:
        raise InfeasibleError(
            f"n={n}: the census and fixed-point oracle scan the "
            f"(2^{5 * n} - 1)/(2^{n} - 1) classes of P^4(GF(2^{n})) by rank until "
            f"their orbits hold every class; they are limited to n <= {MAX_SWEEP_N}")


class OrbitCensus(NamedTuple):
    """Census of semi-linear orbits on the degree-6 set: one (rep, t) pair
    per orbit, in ascending class rank of the representatives, where t is
    the orbit's count of linear orbits; sigma^p fixes each member orbit iff
    t divides p, and t | 6n. t_counts holds (t, N(t)) for each t that
    occurs, ascending: N(t) records have that t."""

    n: int
    records: tuple[tuple[int, int], ...]
    t_counts: tuple[tuple[int, int], ...]
    pgl_orbit_size: int
    pgl_orbit_count: int
    elements_visited: int
    elapsed_ms: float

    @property
    def orbit_count(self) -> int:
        return len(self.records)

    @property
    def orbit_sizes(self) -> tuple[tuple[int, int], ...]:
        """(size, multiplicity) pairs, ascending by size: (t(q^3 - q), N(t))."""
        return tuple((t * self.pgl_orbit_size, count) for t, count in self.t_counts)


_SWEEPS: dict[tuple[int, int, int], OrbitCensus] = {}


def _sweep(n: int, modulus_base: int | None = None, modulus_big: int | None = None,
           ctx: Tower | None = None) -> OrbitCensus:
    """The census of the tower of n on the given moduli, cached by
    (n, modulus_base, modulus_big) with the omitted moduli resolved to their
    defaults (`gf2tower._moduli`, as the tower's own are).

    The only reader and writer of the cache. Given ctx, the tower on those
    moduli, it recomputes and refreshes the entry. Otherwise n is checked
    (`gf2tower._check_n`), and a hit returns the entry and builds no tower:
    an entry is written only under the moduli of a tower that passed its
    constructor's checks and whose scan passed its stop rule, so a hit
    rests on a validated tower. A miss refuses n > 7, builds the tower
    (`make_tower`, which refuses bad moduli) and runs `scan._run_sweep`.
    """
    if ctx is None:
        _check_n(n)
        census = _SWEEPS.get((n, *_moduli(n, modulus_base, modulus_big)))
        if census is not None:
            return census
    _sweep_cost_check(n)
    if ctx is None:
        ctx = make_tower(n, modulus_base, modulus_big)
    from .scan import _run_sweep
    census = _SWEEPS[n, ctx.modulus_base, ctx.modulus_big] = _run_sweep(ctx)
    return census


# ---------------------------------------------------------------- the census


def global_orbit_census(ctx: Tower) -> OrbitCensus:
    """Run a full scan and tabulate the semi-linear orbits.

    Always recomputes, and the fresh result refills the census cache used by
    the fixed-point oracle.
    """
    return _sweep(ctx.n, ctx=ctx)


def fixed_point_oracle(n: int, d: int, modulus_base: int | None = None,
                       modulus_big: int | None = None) -> int:
    """Count linear-group orbits fixed by the d-th Frobenius power, off the
    census of the tower of n on the given moduli (the defaults when
    omitted).

    Formula-free: sigma^d fixes the linear orbits of a record iff
    mu^(2^d) = mu for its cross-ratio mu, that is, iff its t divides d, and
    the census's stop certifies that each record's t is exact. So the count
    is the sum of t N(t) over the t that divide d (`OrbitCensus.t_counts`),
    one step per divisor of 6n. A cached census is read by its moduli and
    builds no tower; the entry was written off a tower that passed every
    check (`_sweep`). A miss, or an n no tower is built for, meets the
    checks of `make_tower` and the cost check as it would uncached.
    """
    return sum(t * count for t, count in _sweep(n, modulus_base, modulus_big).t_counts
               if d % t == 0)


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
    if not _has_moduli(n):
        raise InfeasibleError(
            f"n={n}: the root counts work in the tower GF(2^{6 * n}), whose {_MODULI_SCOPE}")


def _size(coset: tuple[int, tuple[int, ...]] | None) -> int:
    """The number of points of a `solve_affine_linearized` coset: 0 for
    none, else 2^(kernel dimension)."""
    return 0 if coset is None else 1 << len(coset[1])


def _coset_points(ctx: Tower, coset: tuple[int, tuple[int, ...]],
                  js: Sequence[int]) -> dict[int, int]:
    """Points of the coset x0 + span(k_1..k_d) in GF(2^(jn)), for each j in
    js (1, 2 or 3), keyed by j: with M = sigma^(jn) + id, the solutions c
    of sum c_i M(k_i) = M(x0), a system in d unknowns.

    The d + 1 images under M are taken by j steps on sigma^n's columns
    while (d + 1) * max(js) < 6n, which builds no other table; a larger
    coset reads them off sigma^(2n)'s and sigma^(3n)'s own columns, and its
    points in GF(2^n) = GF(2^(2n)) & GF(2^(3n)) solve those two systems
    stacked.
    """
    n, m = ctx.n, ctx.big_degree
    x0, basis = coset
    vecs = (x0, *basis)
    moved = {}
    if len(vecs) * max(js) < m:
        cols, images = ctx._frob_cols(n), vecs
        for j in range(1, max(js) + 1):
            images = [_apply_cols(cols, v) for v in images]
            moved[j] = [a ^ v for a, v in zip(images, vecs)]
    else:
        for j in (2, 3) if 1 in js else js:
            cols = ctx._frob_cols(j * n)
            moved[j] = [_apply_cols(cols, v) ^ v for v in vecs]
        if 1 in js:
            moved[1] = [a << m | b for a, b in zip(moved[2], moved[3])]
    return {j: _size(solve_affine_linearized(moved[j][1:], moved[j][0])) for j in js}


def root_count_oracle(ctx: Tower, which: str) -> RootCounts:
    """Count roots of one of the named equations, splitting by subfield.

    Every count is a rank. A GF(2)-linear map set equal to rhs is solved
    once over GF(2^(6n)) (`solve_affine_linearized`), as a coset
    x0 + span(k_1..k_d) or none; its points in GF(2^(jn)) are those where
    sigma^(jn) + id vanishes, 0 or 2^(kernel dimension) of a system in d
    unknowns (`_coset_points`). The affine-linearized equations, each
    x^(2^k) + x = rhs with d = gcd(k, 6n), are counted so directly, and
    without a root in the whole field the subfields are not solved.

    eq_41, f(x) = x^(q^2+1) + x + 1 with q = 2^n, is counted through
    L(z) = z^(q^4) + z^(q^2) + z: L(z)/z = f(z^(q^2-1)), and L is
    GF(q^2)-linear, so the q^2 - 1 nonzero multiples of a kernel element
    give one root, and every root in GF(2^(6n)) has norm 1 to GF(q^2), so
    it is reached. In GF(2^(3n)), y = 1/x turns f into y^(q+1) + y + 1,
    counted the same way by ker(z^(q^2) + z^q + z), with unit q - 1: the
    kernel lies in GF(2^(3n)), since z^(q^2) = z^q + z gives
    z^(q^3) = z^(q^2) + z^q = z, so no sigma^(3n) column is read. In
    GF(2^(2n)) and GF(2^n), f is x^2 + x + 1, counted as the points of
    x^2 + x = 1 there. See Bluher,
    "On x^(q+1) + ax + b", Finite Fields Appl. 10 (2004).
    """
    _roots_cost_check(ctx.n, which)
    n, m = ctx.n, ctx.big_degree

    if which == "eq_41":
        def kernel(k: int) -> tuple[int, tuple[int, ...]]:
            """ker L in GF(2^(6n)) as the coset (0, basis), L(z) = z^(2^(2k)) + z^(2^k) + z."""
            cols = [a ^ b ^ (1 << i) for i, (a, b)
                    in enumerate(zip(ctx._frob_cols(2 * k), ctx._frob_cols(k)))]
            return solve_affine_linearized(cols, 0)

        def lines(points: int, k: int, j: int) -> int:
            """(points - 1)/(2^k - 1): the roots given by the nonzero points
            of ker L in GF(2^(jn))."""
            nonzero, unit = points - 1, (1 << k) - 1
            if nonzero % unit:
                raise ConsistencyError(
                    f"eq_41: {nonzero} nonzero kernel elements in GF(2^{j * n}), "
                    f"not a multiple of 2^{k} - 1")
            return nonzero // unit

        total = lines(_size(kernel(2 * n)), 2 * n, 6)
        in_3n = lines(_size(kernel(n)), n, 3)  # the kernel lies in GF(2^(3n))
        quadratic = solve_affine_linearized(ctx._frob_plus_id_cols(1), 1)  # x^2 + x = 1
        return _by_subfield(which, {6: total, 3: in_3n,
                                    **_coset_points(ctx, quadratic, (1, 2))})
    k, rhs = {"eq_3n": (3 * n, 1), "eq_2n_affine": (2 * n, 1),
              "eq_deg8": (3, 1), "fixed_field_64": (6, 0)}[which]
    coset = solve_affine_linearized(ctx._frob_plus_id_cols(k), rhs)
    total = _size(coset)
    kernel_dim = math.gcd(k, m)  # the kernel is GF(2^gcd(k, 6n))
    if total not in (0, 1 << kernel_dim):
        raise ConsistencyError(f"{which}: {total} solutions, not 0 or 2^{kernel_dim}")
    if not total:
        return RootCounts(which, 0, 0, 0, 0)
    return _by_subfield(which, {6: total, **_coset_points(ctx, coset, (1, 2, 3))})


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
