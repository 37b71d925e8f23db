"""Orbit counts: closed-form fixed-point formulas, the averaged orbit bound,
and independent oracles (global census, fixed points, root counts).

The closed forms are pure integer formulas valid for prime n > 3, the
paper's hypotheses, which `has_closed_forms` is the one test of. Reports
print them in full, so the commands refuse n > `MAX_CLOSED_FORM_N` = 701, the
last prime whose closed forms stay below 640 digits, the least limit that
PYTHONINTMAXSTRDIGITS accepts for int-to-string conversion. Every one
of them is paired with an oracle that recomputes the same quantity from the
group action itself, with no shared formulas: the census and the fixed-point
oracle scan the affine classes of P^4(GF(2^n)) in ascending rank and key each
by an orbit invariant, the cross-ratio of the first four q-power conjugates,
until the orbits found hold every class (`scan._run_sweep` says why that stop
certifies the census). The scan counts N(t), the number of orbits with t
linear orbits, once per census, and the fixed-point oracle is the sum of
t N(t) over the t dividing d, one step per divisor of 6n, read off a
cached census (`OrbitCensus.t_counts`). The element-level orbits and
class equations that check them are test oracles in `tests/`. The
root-count oracles count by rank, one stacked GF(2)-linear system per
subfield; the one equation that is not linear, eq_41, is counted on the
kernel of a linearized polynomial whose nonzero elements map onto its
roots. Each orbit is represented by an element of its least class rank,
the first class the scan meets; at n = 7
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
from .gf2tower import _MAX_N, _MODULI_SCOPE, Tower, _has_moduli, solve_affine_linearized

__all__ = [
    "InfeasibleError",
    "ConsistencyError",
    "euler_phi",
    "is_prime",
    "has_closed_forms",
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
    of where the closed forms and the root lemmas are stated."""
    return n > 3 and is_prime(n)


def _require_odd_prime(n: int) -> None:
    if not has_closed_forms(n):
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


def _sweep(ctx: Tower, fresh: bool = False) -> OrbitCensus:
    """The census of one tower, cached by (n, modulus_base, modulus_big).

    The only reader and writer of the cache; fresh=True recomputes and
    refreshes the entry. A miss refuses n > 7, then runs `scan._run_sweep`.
    """
    key = (ctx.n, ctx.modulus_base, ctx.modulus_big)
    if fresh or key not in _SWEEPS:
        _sweep_cost_check(ctx.n)
        from .scan import _run_sweep
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
    the census's stop certifies that each record's t is exact. So the count
    is the sum of t N(t) over the t that divide d (`OrbitCensus.t_counts`),
    one step per divisor of 6n.
    """
    return sum(t * count for t, count in _sweep(ctx).t_counts if d % t == 0)


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
