"""Seeded workloads: rounds of CLI invocations and the check on each output.

A workload is a sequence of rounds; round r is a pure function of
(workload, seed, r), so the same seed gives the same argv lists. A round
function returns its operations and the `--modulus-big` values they use. Each
operation is one `goppa_orbits.cli.main(argv)` call with `--json`; its check
returns None when the report is right, or the reason it is not.

Expected values come from the closed forms (computed here, not by the
program) or, where the paper has no closed form (n = 2 and n = 4), from the
program: 185 / 4111 orbits at n = 4 agree with the census prototype that
reproduced them independently of today's sweep, and 8 / 67 at n = 2 are
recorded. The fixed-point tables at n = 2 and n = 4 are recorded too; they
satisfy Burnside's identity against the orbit counts, which the self-test
checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("census", "requests")

# Irreducible over GF(2); the counts do not depend on the choice.
N4_BIG_MODULI = ("24,4,3,1,0", "24,7,2,1,0", "24,9,3,1,0", "24,16,3,1,0")
N5_BIG_MODULI = ("30,1,0", "30,9,0", "30,21,0", "30,29,0")

LINEAR_EQUATIONS = ("eq_3n", "eq_2n_affine", "eq_deg8", "fixed_field_64")

CENSUS_COUNTS = {  # n -> (orbits, linear orbits, orbit-size histogram)
    2: (8, 67, {"180": 1, "240": 1, "360": 2, "720": 4}),
    4: (185, 4111, {"12240": 1, "24480": 2, "32640": 2, "48960": 20, "97920": 160}),
}
FIXED_COUNTS = {  # n -> {Frobenius power d dividing 6n: fixed linear orbits}
    2: {1: 0, 2: 0, 3: 3, 4: 4, 6: 15, 12: 67},
    4: {1: 0, 2: 0, 3: 3, 4: 0, 6: 15, 8: 16, 12: 255, 24: 4111},
}

# One requests round: (kind, how many), shuffled per round. Sorted by
# latency the kinds fall into blocks: bound, table, fixed2, census2, roots5
# and code5 (the fastest 27 %), equiv5 (the next 55 %), roots7 (16 %), and
# code7 (the slowest 2 %). p50 sits inside the equiv5 block and p99 in the
# middle of the code7 block, so neither jumps between kinds.
REQUEST_DECK = (
    ("bound", 6), ("table", 4), ("fixed2", 3), ("census2", 2), ("roots5", 6),
    ("code5", 6), ("equiv5", 55), ("roots7", 16), ("code7", 2),
)

# Always exits 2: check_extended_equivalence enumerates the weights of the
# dimension-86 extended code, past the enumeration budget (24). Run once per
# requests run, outside the measured mix, so the defect stays visible.
KNOWN_DEFECT = ("equiv", "--n", "7", "--alpha", "random", "--map", "random")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, dict | None], str | None]


# ------------------------------------------------------------ closed forms


def euler_phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def is_prime(k: int) -> bool:
    return k > 1 and all(k % f for f in range(2, int(k ** 0.5) + 1))


def divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def bound_numerator(n: int) -> int:
    return (1 << 3 * n) + (1 << 2 * n) + 3 * (1 << n) + 12 * n - 18


def degree_six_count(n: int) -> int:
    """Elements of GF(2^6n) in neither GF(2^2n) nor GF(2^3n)."""
    return (1 << 6 * n) - (1 << 3 * n) - (1 << 2 * n) + (1 << n)


def root_counts(n: int, which: str) -> tuple[int, int]:
    """(total roots, roots of degree 6) of the linear equations, any prime n > 3."""
    return {
        "eq_3n": ((1 << 3 * n), (1 << 3 * n) - (1 << n)),
        "eq_2n_affine": (0, 0),
        "eq_deg8": (8, 6),
        "fixed_field_64": (64, 54),
    }[which]


# ------------------------------------------------------------------ checks


def _ok(rc: int, report: dict | None) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "no JSON report"
    return None


def _diff(report: dict, want: dict) -> str | None:
    bad = [f"{k}={report.get(k)!r}, expected {v!r}"
           for k, v in want.items() if report.get(k) != v]
    return "; ".join(bad) or None


def check_census(n: int):
    orbits, linear, hist = CENSUS_COUNTS[n]
    orbit_size = (1 << 3 * n) - (1 << n)
    elements = degree_six_count(n)

    def check(rc, report):
        err = _ok(rc, report) or _diff(report, {
            "n": n, "orbit_count": orbits, "pgl_orbit_count": linear,
            "elements_visited": elements, "orbit_size_histogram": hist,
            "workers": 1})
        if err:
            return err
        rows = report["orbits"]
        if len(rows) != orbits:
            return f"{len(rows)} orbit rows, expected {orbits}"
        if sum(r["size"] for r in rows) != elements:
            return "orbit sizes do not sum to the degree-6 count"
        if any(r["size"] != r["pgl_orbits"] * orbit_size for r in rows):
            return "an orbit size is not its linear-orbit count times the orbit size"
        if sum(int(s) * c for s, c in report["orbit_size_histogram"].items()) != elements:
            return "histogram does not sum to the degree-6 count"
        return None
    return check


def check_fixed(n: int, d: int):
    def check(rc, report):
        return _ok(rc, report) or _diff(
            report, {"n": n, "d": d, "oracle": FIXED_COUNTS[n][d], "closed_form": None})
    return check


def check_roots(n: int, which: str):
    total, deg6 = root_counts(n, which)

    def check(rc, report):
        return _ok(rc, report) or _diff(report, {
            "n": n, "which": which, "total": total, "in_degree_six": deg6,
            "match": True})
    return check


def _even_weight_enumerator(enum: list[int], dimension: int, length: int) -> str | None:
    if len(enum) != length + 1 or sum(enum) != 1 << dimension:
        return "weight enumerator does not count 2^dimension words"
    if any(enum[w] for w in range(1, length + 1, 2)):
        return "extended code has a word of odd weight"
    return None


def check_code(n: int):
    length = (1 << n) + 1

    def check(rc, report):
        err = _ok(rc, report) or _diff(report, {"n": n, "length": length,
                                                "extended": True})
        if err:
            return err
        k = report["dimension"]
        if k < length - 1 - 6 * n or len(report["generator_rows"]) != k:
            return f"dimension {k} below the Goppa bound {length - 1 - 6 * n}"
        if k + len(report["parity_rows"]) != length:
            return "generator and parity ranks do not add up to the length"
        if len(report["g_coeffs"]) != 7 or int(report["g_coeffs"][-1], 16) != 1:
            return "minimal polynomial is not monic of degree 6"
        enum = report["weight_enumerator"]
        if enum is None:
            return None if k > 24 else "weight enumerator missing"
        return _even_weight_enumerator(enum, k, length)
    return check


def check_equiv(n: int):
    length = (1 << n) + 1

    def check(rc, report):
        err = _ok(rc, report) or _diff(report, {"n": n, "verified": True})
        if err:
            return err
        wa, wb = report["weight_enumerator_alpha"], report["weight_enumerator_beta"]
        if wa != wb:
            return "equivalent codes with different weight enumerators"
        k = sum(wa).bit_length() - 1
        return _even_weight_enumerator(wa, k, length)
    return check


def check_bound(n: int):
    numerator = bound_numerator(n)

    def check(rc, report):
        return _ok(rc, report) or _diff(report, {
            "n": n, "bound": numerator // (6 * n), "numerator": numerator,
            "match": True})
    return check


def check_table(nmax: int):
    primes = [k for k in range(5, nmax + 1) if is_prime(k)]

    def check(rc, report):
        err = _ok(rc, report) or _diff(report, {"n_values": primes})
        if err:
            return err
        for row in report["rows"]:
            n = row["n"]
            if row["bound"] != bound_numerator(n) // (6 * n):
                return f"bound for n = {n} differs from the closed form"
            terms = sum(c * euler_phi(6 * n // int(d)) for d, c in row["counts"].items())
            if terms != bound_numerator(n):
                return f"fixed counts for n = {n} break the averaged sum"
        return None
    return check


# ------------------------------------------------------------------ rounds


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def census_round(seed: int, r: int) -> tuple[list[Op], tuple[str, ...]]:
    """The n = 4 census, its fixed-point table, the n = 5 linear root counts,
    and one n = 5 equivalence check (the premise that orbits bound codes)."""
    rng = _rng("census", seed, r)
    big4 = ("--modulus-big", rng.choice(N4_BIG_MODULI))
    big5 = ("--modulus-big", rng.choice(N5_BIG_MODULI))
    ops = [Op(("census", "--n", "4", "--workers", "1", "--json") + big4, check_census(4))]
    ops += [Op(("fixed", "--n", "4", "--d", str(d), "--json") + big4, check_fixed(4, d))
            for d in divisors(24)]
    ops += [Op(("roots", "--n", "5", "--which", w, "--json") + big5, check_roots(5, w))
            for w in LINEAR_EQUATIONS]
    ops.append(Op(("equiv", "--n", "5", "--alpha", "random", "--map", "random",
                   "--seed", str(rng.randrange(1 << 31)), "--json") + big5,
                  check_equiv(5)))
    return ops, (big4[1], big5[1])


def _request(kind: str, rng: random.Random) -> Op:
    seed = ("--seed", str(rng.randrange(1 << 31)))
    if kind == "equiv5":
        return Op(("equiv", "--n", "5", "--alpha", "random", "--map", "random")
                  + seed + ("--json",), check_equiv(5))
    if kind in ("code5", "code7"):
        n = int(kind[-1])
        return Op(("code", "--n", str(n), "--alpha", "random", "--extended")
                  + seed + ("--json",), check_code(n))
    if kind in ("roots5", "roots7"):
        n = int(kind[-1])
        w = rng.choice(LINEAR_EQUATIONS if n == 5 else LINEAR_EQUATIONS[1:])
        return Op(("roots", "--n", str(n), "--which", w, "--json"), check_roots(n, w))
    if kind == "bound":
        n = rng.choice((5, 7))
        return Op(("bound", "--n", str(n), "--json"), check_bound(n))
    if kind == "table":
        nmax = rng.randrange(5, 62)
        return Op(("fixed", "--n", "5", "--table", "--nmax", str(nmax), "--json"),
                  check_table(nmax))
    if kind == "census2":
        return Op(("census", "--n", "2", "--workers", "1", "--json"), check_census(2))
    if kind == "fixed2":
        d = rng.choice(divisors(12))
        return Op(("fixed", "--n", "2", "--d", str(d), "--json"), check_fixed(2, d))
    raise ValueError(kind)


def requests_round(seed: int, r: int) -> tuple[list[Op], tuple[str, ...]]:
    """One shuffled deck of short requests; every request builds its own tower
    with the default moduli, as a user's invocation does."""
    rng = _rng("requests", seed, r)
    kinds = [kind for kind, count in REQUEST_DECK for _ in range(count)]
    rng.shuffle(kinds)
    return [_request(kind, rng) for kind in kinds], ()


ROUNDS = {"census": census_round, "requests": requests_round}
