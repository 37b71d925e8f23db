"""Command-line surface: reproduce the counting claims and build codes.

Exit codes: 0 success (and all verified claims matched), 1 a verified claim
mismatched (falsification), 2 usage or domain error, 3 infeasible request,
4 the reader closed the output pipe before the report was written (as
`goppa-orbits census --n 5 --json | head -1` does).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from . import codes, counting, gf2poly, mobius, schema
from .counting import ConsistencyError, InfeasibleError
from .gf2tower import Tower, make_tower

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_PIPE = 4

# the limit is the report size, not the build time: at n = 12 the extended code
# builds in about 0.3 s (2 vCPU), but its report holds 4024 rows of 4097 bits
MAX_CODE_N = 11


def _parse_modulus(text: str | None, degree: int) -> int | None:
    if text is None:
        return None
    try:
        exps = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad modulus exponent list {text!r}") from exc
    if any(not 0 <= e <= degree for e in exps):
        raise ValueError(f"modulus exponents must lie in 0..{degree}, got {text!r}")
    return gf2poly.from_exponents(exps)


def _tower(args) -> Tower:
    return make_tower(
        args.n,
        modulus_base=_parse_modulus(getattr(args, "modulus_base", None), args.n),
        modulus_big=_parse_modulus(getattr(args, "modulus_big", None), 6 * args.n),
    )


def _code_cost_check(n: int) -> None:
    if n > MAX_CODE_N:
        raise InfeasibleError(
            f"n={n}: codes of length 2^{n} + 1 are too large to "
            f"build and report; code and equiv are limited to n <= {MAX_CODE_N}")


def _emit(args, kind: str, obj: dict, lines: list[str]) -> None:
    if args.json:
        schema.validate(kind, obj)
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _resolve_alpha(ctx: Tower, text: str, seed: int | None) -> int:
    if text == "random":
        rng = random.Random(seed)
        return mobius.random_degree_six(ctx, rng)
    alpha = ctx.from_hex(text)
    if not ctx.is_degree_six(alpha):
        raise ValueError("alpha must have degree 6 over the base field")
    return alpha


# ------------------------------------------------------------------ commands


def cmd_bound(args) -> int:
    n = args.n
    counting._closed_form_cost_check(n)
    if n <= 3 or not counting.is_prime(n):
        print(f"error: n={n} must be a prime greater than 3", file=sys.stderr)
        return EXIT_USAGE
    rows = counting.burnside_decomposition(n)
    numerator = counting.burnside_numerator(n)
    bound = counting.burnside_bound(n)
    obj = {
        "n": n,
        "bound": bound,
        "numerator": numerator,
        "decomposition": rows,
        "match": sum(r["term"] for r in rows) == numerator,
    }
    lines = [f"n = {n}: at most {bound} inequivalent extended codes",
             f"numerator 2^(3n)+2^(2n)+3*2^n+12n-18 = {numerator} = {bound} * {6 * n}"]
    for r in rows:
        lines.append(
            f"  divisor {r['divisor']:>3} (order {r['order']:>3}): "
            f"{r['fixed_points']:>12} fixed * phi = {r['phi']:>3} -> {r['term']}")
    _emit(args, "bound", obj, lines)
    return EXIT_OK


def cmd_census(args) -> int:
    counting._sweep_cost_check(args.n)
    ctx = _tower(args)
    census = counting.global_orbit_census(ctx, workers=args.workers)
    bound = match = None
    note = ""
    if args.n > 3 and counting.is_prime(args.n):
        bound = counting.burnside_bound(args.n)
        match = census.orbit_count == bound
    else:
        note = " (n outside the closed-form hypotheses; census only)"
    obj = {
        "n": census.n,
        "orbit_count": census.orbit_count,
        "pgl_orbit_count": census.pgl_orbit_count,
        "orbit_size_histogram": {str(s): c for s, c in census.orbit_sizes},
        "elements_visited": census.elements_visited,
        "orbits": [
            {"rep": ctx.to_hex(r.rep), "pgl_orbits": r.pgl_orbits,
             "size": r.pgl_orbits * census.pgl_orbit_size}
            for r in census.records
        ],
        "workers": args.workers,
        "elapsed_ms": round(census.elapsed_ms, 3),
        "bound": bound,
        "match": match,
    }
    lines = [
        f"n = {args.n}: {census.orbit_count} semi-linear orbits on "
        f"{census.elements_visited} degree-6 elements{note}",
        f"linear orbits: {census.pgl_orbit_count}; histogram (size: count): "
        + ", ".join(f"{s}: {c}" for s, c in census.orbit_sizes),
        f"workers = {args.workers}, elapsed {census.elapsed_ms / 1e3:.1f} s",
    ]
    if bound is not None:
        lines.append(f"bound = {bound}: {'MATCH' if match else 'MISMATCH'}")
    _emit(args, "census", obj, lines)
    return EXIT_OK if match is not False else EXIT_MISMATCH


def cmd_fixed(args) -> int:
    if args.table:
        counting._closed_form_cost_check(args.nmax, "nmax")
        primes = [k for k in range(5, args.nmax + 1) if counting.is_prime(k)]
        rows = []
        for n in primes:
            rows.append({
                "n": n,
                "counts": {str(r["divisor"]): r["fixed_points"]
                           for r in counting.burnside_decomposition(n)},
                "bound": counting.burnside_bound(n),
            })
        obj = {"n_values": primes, "rows": rows}
        lines = []
        for row in rows:
            lines.append(f"n = {row['n']}: bound {row['bound']}")
            lines.append("  fixed by divisor: " + ", ".join(
                f"d={d}: {v}" for d, v in row["counts"].items()))
        _emit(args, "fixed_table", obj, lines)
        return EXIT_OK
    if args.d is None:
        print("error: --d is required without --table", file=sys.stderr)
        return EXIT_USAGE
    n, d = args.n, args.d
    counting._closed_form_cost_check(n)
    closed = None
    if n > 3 and counting.is_prime(n):
        closed = counting.fixed_points_for_power(n, d)
    oracle = None
    start = time.perf_counter()
    if n <= counting.MAX_SWEEP_N:
        ctx = _tower(args)
        oracle = counting.fixed_point_oracle(ctx, d)
    elapsed = (time.perf_counter() - start) * 1e3
    match = None if closed is None or oracle is None else closed == oracle
    order = (6 * n) // math.gcd(6 * n, d % (6 * n) or 6 * n)
    obj = {
        "n": n, "d": d, "order": order,
        "closed_form": closed, "oracle": oracle, "match": match,
        "elapsed_ms": round(elapsed, 3),
    }
    shown = f"skipped (n > {counting.MAX_SWEEP_N})" if oracle is None else oracle
    lines = [f"n = {n}, power d = {d} (element order {order})",
             f"closed form: {closed}", f"oracle: {shown}", f"match: {match}"]
    _emit(args, "fixed", obj, lines)
    return EXIT_MISMATCH if match is False else EXIT_OK


_ROOT_EXPECTED = {
    "eq_3n": lambda n: (1 << 3 * n) - (1 << n),
    "eq_41": lambda n: (1 << 2 * n) - (1 << n) - 2,
    "eq_deg8": lambda n: 6,
    "fixed_field_64": lambda n: 54,
    "eq_2n_affine": lambda n: 0,
}


def cmd_roots(args) -> int:
    counting._roots_cost_check(args.n, args.which)
    ctx = _tower(args)
    start = time.perf_counter()
    counts = counting.root_count_oracle(ctx, args.which)
    elapsed = (time.perf_counter() - start) * 1e3
    expected = match = None
    if args.n > 3 and counting.is_prime(args.n):
        expected = _ROOT_EXPECTED[args.which](args.n)
        match = counts.in_degree_six == expected
    obj = {
        "n": args.n, "which": args.which,
        "total": counts.total,
        "in_degree_six": counts.in_degree_six,
        "in_subfield_2n": counts.in_subfield_2n,
        "in_subfield_3n": counts.in_subfield_3n,
        "expected_in_degree_six": expected,
        "match": match,
        "elapsed_ms": round(elapsed, 3),
    }
    lines = [
        f"n = {args.n}, equation {args.which}: {counts.total} roots total",
        f"  degree-6: {counts.in_degree_six}; in GF(2^{2 * args.n}): "
        f"{counts.in_subfield_2n}; in GF(2^{3 * args.n}): {counts.in_subfield_3n}",
    ]
    if expected is not None:
        lines.append(f"  expected degree-6 count {expected}: "
                     f"{'MATCH' if match else 'MISMATCH'}")
    _emit(args, "roots", obj, lines)
    return EXIT_MISMATCH if match is False else EXIT_OK


def cmd_code(args) -> int:
    _code_cost_check(args.n)
    ctx = _tower(args)
    alpha = _resolve_alpha(ctx, args.alpha, args.seed)
    g = ctx.minimal_polynomial(alpha)
    code = (codes.extended_goppa_code(ctx, g) if args.extended
            else codes.goppa_code(ctx, g))
    obj = codes.code_to_json(ctx, alpha, g, code)
    obj["extended"] = bool(args.extended)
    lines = [
        f"n = {args.n}, alpha = {ctx.to_hex(alpha)}"
        + (" (extended)" if args.extended else ""),
        f"g coefficients (ascending): {' '.join(obj['g_coeffs'])}",
        f"[{code.length}, {code.dimension}] binary code",
    ]
    if obj["weight_enumerator"] is not None:
        nz = {w: c for w, c in enumerate(obj["weight_enumerator"]) if c}
        lines.append(f"weight enumerator: {nz}")
    lines += [f"generator row: {row}" for row in obj["generator_rows"]]
    _emit(args, "code", obj, lines)
    return EXIT_OK


def cmd_equiv(args) -> int:
    _code_cost_check(args.n)
    ctx = _tower(args)
    rng = random.Random(args.seed)
    alpha = _resolve_alpha(ctx, args.alpha, args.seed)
    if args.map == "random":
        semimap = mobius.random_map(ctx, rng)
    else:
        semimap = mobius.parse_map(ctx, args.map)
    report = codes.check_extended_equivalence(ctx, alpha, semimap)
    cycles = "".join("(" + " ".join(map(str, c)) + ")"
                     for c in counting.permutation_cycles(report.permutation)
                     if len(c) > 1)
    obj = {
        "n": args.n,
        "alpha_hex": ctx.to_hex(report.alpha),
        "beta_hex": ctx.to_hex(report.beta),
        "map": mobius.format_map(ctx, semimap),
        "permutation_cycles": cycles or "()",
        "verified": report.verified,
        "weight_enumerator_alpha": (None if report.weights_alpha is None
                                    else list(report.weights_alpha)),
        "weight_enumerator_beta": (None if report.weights_beta is None
                                   else list(report.weights_beta)),
    }
    lines = [
        f"alpha = {obj['alpha_hex']}, map = {obj['map']}",
        f"beta  = {obj['beta_hex']}",
        f"support permutation: {obj['permutation_cycles']}",
        f"verified: {report.verified}",
    ]
    if report.weights_alpha is None:
        lines.append(f"weight enumerators: skipped (dimension above "
                     f"{codes.WEIGHT_ENUM_MAX_DIM})")
    _emit(args, "equiv", obj, lines)
    return EXIT_OK if report.verified else EXIT_MISMATCH


# -------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, *, workers: bool = False) -> None:
    p.add_argument("--n", type=int, required=True, help="base-field exponent")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--modulus-base", help="override, exponent list like '5,2,0'")
    p.add_argument("--modulus-big", help="override, exponent list like '30,1,0'")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="validated (>= 1) and echoed in the report; the "
                            "census runs in one thread")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="goppa-orbits",
        description="Extended binary sextic Goppa codes: orbit counts, "
                    "bounds, and equivalence checks over GF(2^(6n)).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form orbit-count upper bound "
                                     f"(n <= {counting.MAX_CLOSED_FORM_N})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("census", help=f"full orbit census (n <= {counting.MAX_SWEEP_N})")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("fixed", help="fixed-orbit counts per Frobenius power "
                                     f"(n <= {counting.MAX_CLOSED_FORM_N}; "
                                     f"oracle n <= {counting.MAX_SWEEP_N})")
    _add_common(p)
    p.add_argument("--d", type=int, help="Frobenius power")
    p.add_argument("--table", action="store_true",
                   help="print closed forms for a range of primes")
    p.add_argument("--nmax", type=int, default=61,
                   help=f"largest n for --table (at most {counting.MAX_CLOSED_FORM_N})")
    p.set_defaults(func=cmd_fixed)

    p = sub.add_parser("roots", help="root-count oracles for the named equations "
                                     f"(n <= {counting.MAX_ROOTS_N}; "
                                     f"eq_41 n <= {counting.MAX_EQ41_N})")
    _add_common(p)
    p.add_argument("--which", required=True, choices=counting.ROOT_EQUATIONS)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("code", help="build the binary code of a degree-6 element "
                                    f"(n <= {MAX_CODE_N})")
    _add_common(p)
    p.add_argument("--alpha", required=True, help="hex encoding or 'random'")
    p.add_argument("--seed", type=int, help="seed when alpha is 'random'")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("equiv", help="verify extended-code equivalence under a map "
                                     f"(n <= {MAX_CODE_N})")
    _add_common(p)
    p.add_argument("--alpha", required=True, help="hex encoding or 'random'")
    p.add_argument("--map", required=True,
                   help="semi-linear map 'a,b,c,d;i' (base-field hex) or 'random'")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_equiv)
    return ap


# built by the first `main` call, not on import, and shared by every later
# call in the process: parsing reads the parser and never changes it
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit-time flush
        return code
    except BrokenPipeError:
        # send what is left in the buffer to devnull, so the exit-time flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output pipe was closed before the report was written",
              file=sys.stderr)
        return EXIT_PIPE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConsistencyError as exc:
        print(f"falsified internal claim: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
