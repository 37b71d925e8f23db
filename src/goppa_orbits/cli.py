"""Command-line surface: reproduce the counting claims and build codes.

Exit codes: 0 success (and all verified claims matched), 1 a verified claim
mismatched or an internal check failed (falsification: a `ConsistencyError`
or an `AssertionError` of the arithmetic's own guards, one line, no
traceback), 2 usage or domain error, 3 infeasible request,
4 the reader closed the output pipe before the report was written (as
`goppa-orbits code --n 11 --alpha random --seed 1 --extended --json | head -c 1`
does).

A `--json` report is one line of JSON with sorted keys, written by one
`json.JSONEncoder(sort_keys=True)` built on import, which the C encoder of the
`json` module runs (an `indent` would send it through the pure-Python one);
`python -m json.tool` prints it indented. A text report's lines are
formatted only when they are printed.

What no request changes is built once per process: the parser and, for each
subcommand, the table `_parse_request` reads a well-formed request off
(`_parsers`, on the first `main` call), the JSON encoder and `schema`'s
rules (on import). Each request still pays for its own parse, its moduli,
its work and its report.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import random
import re
import sys
import time
import types
from collections.abc import Callable, Iterable

from . import counting, gf2poly, schema
from .counting import ConsistencyError, InfeasibleError
from .gf2tower import Tower, _check_n, make_tower


def _lazy(name: str) -> types.ModuleType:
    """The module `name`, run on the first read of any of its attributes.

    Only `code` and `equiv` read `codes` and `mobius`, so a process that
    serves `bound`, `fixed`, `roots` or `census` never compiles or runs
    them. The module object goes into `sys.modules`, and onto its package,
    before it runs, as an import would put it: every importer (`codes`'
    own `from .mobius import ...`, a test, a tracer that reads each layer
    from `sys.modules` and rebinds its functions) gets this one object, and
    whichever of them reads it first, `vars()` included, runs it. A PEP 562
    `__getattr__` or an import inside the commands would leave the module
    out of `sys.modules` until a command imports it. The first read runs
    the module without a lock on 3.10.13, 3.11.7 and 3.12.1 (3.13.0 takes
    one), so two threads must not make it at once; the CLI runs in one."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    spec.loader.exec_module(module)
    return module


codes = _lazy(f"{__package__}.codes")
mobius = _lazy(f"{__package__}.mobius")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_PIPE = 4

# the limit is the report size, not the build time: at n = 12 the extended code
# builds in about 0.3 s (2 vCPU), but its report holds 4024 rows of 4097 bits
MAX_CODE_N = 11

_EXPONENTS = re.compile(r"[0-9]+(,[0-9]+)*")


def _parse_modulus(text: str | None, degree: int) -> int | None:
    if text is None:
        return None
    if not _EXPONENTS.fullmatch(text):
        raise ValueError(f"bad modulus exponent list {text!r}: expected "
                         "comma-separated digits 0-9")
    exps = [int(t) for t in text.split(",")]
    if len(set(exps)) != len(exps):
        raise ValueError(f"repeated modulus exponent in {text!r}: over GF(2) "
                         "the two terms cancel")
    if any(e > degree for e in exps):
        raise ValueError(f"modulus exponents must lie in 0..{degree}, got {text!r}")
    return gf2poly.from_exponents(exps)


def _moduli(args) -> tuple[int | None, int | None]:
    """The request's --modulus-base and --modulus-big, parsed once n is
    known to have a tower: the degrees they are checked against are n and 6n."""
    _check_n(args.n)
    return (_parse_modulus(args.modulus_base, args.n),
            _parse_modulus(args.modulus_big, 6 * args.n))


def _tower(args) -> Tower:
    return make_tower(args.n, *_moduli(args))


def _code_cost_check(n: int) -> None:
    if n > MAX_CODE_N:
        raise InfeasibleError(
            f"n={n}: codes of length 2^{n} + 1 are too large to "
            f"build and report; code and equiv are limited to n <= {MAX_CODE_N}")


# `json.dumps(obj, sort_keys=True)`'s encoder, built once rather than per report
_JSON = json.JSONEncoder(sort_keys=True)


def _emit(args, kind: str, obj: dict, lines: Callable[[], Iterable[str]]) -> None:
    """Print the report: `obj` as one line of JSON with --json, else the
    text lines, which only this branch makes."""
    if args.json:
        schema.validate(kind, obj)
        print(_JSON.encode(obj))
    else:
        for line in lines():
            print(line)


def _resolve_alpha(ctx: Tower, text: str, rng: random.Random) -> int:
    if text == "random":
        return mobius.random_degree_six(ctx, rng)
    alpha = ctx.from_hex(text)
    if not ctx.is_degree_six(alpha):
        raise ValueError("alpha must have degree 6 over the base field")
    return alpha


# ------------------------------------------------------------------ commands


def cmd_bound(args) -> int:
    n = args.n
    counting._closed_form_cost_check(n)
    rows, bound = counting._burnside(n)  # raises unless the two routes agree
    numerator = counting.burnside_numerator(n)
    obj = {
        "n": n,
        "bound": bound,
        "numerator": numerator,
        "decomposition": rows,
        "match": True,
    }

    def lines():
        yield f"n = {n}: at most {bound} inequivalent extended codes"
        yield f"numerator 2^(3n)+2^(2n)+3*2^n+12n-18 = {numerator} = {bound} * {6 * n}"
        for r in rows:
            yield (f"  divisor {r['divisor']:>3} (order {r['order']:>3}): "
                   f"{r['fixed_points']:>12} fixed * phi = {r['phi']:>3} -> {r['term']}")

    _emit(args, "bound", obj, lines)
    return EXIT_OK


def cmd_census(args) -> int:
    counting._sweep_cost_check(args.n)
    if args.workers < 1:
        raise ValueError("workers must be positive")
    ctx = _tower(args)
    census = counting.global_orbit_census(ctx)
    # `to_hex` for each row, with its range check made once for all of them
    if census.records and max(rep for rep, _ in census.records) >= ctx.order:
        raise ValueError("encoding out of range")
    spec = f"0{ctx.hex_width}x"
    bound = counting.burnside_bound(args.n)
    match = census.orbit_count == bound
    sizes = census.orbit_sizes
    obj = {
        "n": census.n,
        "orbit_count": census.orbit_count,
        "pgl_orbit_count": census.pgl_orbit_count,
        "orbit_size_histogram": {str(s): c for s, c in sizes},
        "elements_visited": census.elements_visited,
        "orbits": [
            {"rep": format(rep, spec), "pgl_orbits": t, "size": t * census.pgl_orbit_size}
            for rep, t in census.records
        ],
        "workers": args.workers,
        "elapsed_ms": round(census.elapsed_ms, 3),
        "bound": bound,
        "match": match,
    }

    def lines():
        yield (f"n = {args.n}: {census.orbit_count} semi-linear orbits on "
               f"{census.elements_visited} degree-6 elements")
        yield (f"linear orbits: {census.pgl_orbit_count}; histogram (size: count): "
               + ", ".join(f"{s}: {c}" for s, c in sizes))
        yield f"workers = {args.workers}, elapsed {census.elapsed_ms:.1f} ms"
        yield f"bound = {bound}: {'MATCH' if match else 'MISMATCH'}"

    _emit(args, "census", obj, lines)
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_fixed(args) -> int:
    # the oracle's is the one tower `fixed` builds: elsewhere a modulus would go unread
    if ((args.table or args.n is not None and args.n > counting.MAX_SWEEP_N)
            and (args.modulus_base is not None or args.modulus_big is not None)):
        raise ValueError("fixed reads --modulus-base and --modulus-big only for its "
                         f"oracle, which runs at n <= {counting.MAX_SWEEP_N} without --table")
    if args.table:
        counting._closed_form_cost_check(args.nmax, "nmax")
        primes = [k for k in range(args.nmax + 1) if counting.has_closed_forms(k)]
        rows = []
        for n in primes:
            decomposition, bound = counting._burnside(n)
            rows.append({
                "n": n,
                "counts": {str(r["divisor"]): r["fixed_points"] for r in decomposition},
                "bound": bound,
            })
        obj = {"n_values": primes, "rows": rows}

        def table_lines():
            if not rows:
                yield f"no prime n in 5..{args.nmax}: the table is empty"
            for row in rows:
                yield f"n = {row['n']}: bound {row['bound']}"
                yield "  fixed by divisor: " + ", ".join(
                    f"d={d}: {v}" for d, v in row["counts"].items())

        _emit(args, "fixed_table", obj, table_lines)
        return EXIT_OK
    for flag in ("n", "d"):
        if getattr(args, flag) is None:
            print(f"error: --{flag} is required without --table", file=sys.stderr)
            return EXIT_USAGE
    n, d = args.n, args.d
    counting._closed_form_cost_check(n)
    closed = None
    if counting.has_closed_forms(n):
        closed = counting.fixed_points_for_power(n, d)
    oracle = None
    elapsed = 0.0
    if n <= counting.MAX_SWEEP_N:
        moduli = _moduli(args)
        start = time.perf_counter()
        oracle = counting.fixed_point_oracle(n, d, *moduli)
        elapsed = (time.perf_counter() - start) * 1e3
    match = None if closed is None or oracle is None else closed == oracle
    order = 6 * n // math.gcd(6 * n, d)
    obj = {
        "n": n, "d": d, "order": order,
        "closed_form": closed, "oracle": oracle, "match": match,
        "elapsed_ms": round(elapsed, 3),
    }

    def lines():
        shown = f"skipped (n > {counting.MAX_SWEEP_N})" if oracle is None else oracle
        yield f"n = {n}, power d = {d} (element order {order})"
        yield f"closed form: {closed}"
        yield f"oracle: {shown}"
        yield f"match: {match}"

    _emit(args, "fixed", obj, lines)
    return EXIT_MISMATCH if match is False else EXIT_OK


def cmd_roots(args) -> int:
    counting._roots_cost_check(args.n, args.which)
    ctx = _tower(args)
    start = time.perf_counter()
    counts = counting.root_count_oracle(ctx, args.which)
    elapsed = (time.perf_counter() - start) * 1e3
    expected = match = None
    if counting.has_closed_forms(args.n):
        d, _, c = counting.ROOT_TERMS[args.which](args.n)
        expected = c * counting.fixed_points_for_power(args.n, d)
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

    def lines():
        yield f"n = {args.n}, equation {args.which}: {counts.total} roots total"
        yield (f"  degree-6: {counts.in_degree_six}; in GF(2^{2 * args.n}): "
               f"{counts.in_subfield_2n}; in GF(2^{3 * args.n}): {counts.in_subfield_3n}")
        if expected is not None:
            yield (f"  expected degree-6 count {expected}: "
                   f"{'MATCH' if match else 'MISMATCH'}")

    _emit(args, "roots", obj, lines)
    return EXIT_MISMATCH if match is False else EXIT_OK


def cmd_code(args) -> int:
    _code_cost_check(args.n)
    ctx = _tower(args)
    alpha = _resolve_alpha(ctx, args.alpha, random.Random(args.seed))
    g = ctx.minimal_polynomial(alpha)
    columns = (codes.extended_parity(ctx, g) if args.extended
               else codes.goppa_parity(ctx, g, list(ctx.subfield)))
    obj = codes.code_to_json(ctx, alpha, g, columns)
    obj["extended"] = bool(args.extended)

    def lines():
        yield (f"n = {args.n}, alpha = {ctx.to_hex(alpha)}"
               + (" (extended)" if args.extended else ""))
        yield f"g coefficients (ascending): {' '.join(obj['g_coeffs'])}"
        yield f"[{obj['length']}, {obj['dimension']}] binary code"
        if obj["weight_enumerator"] is not None:
            nz = {w: c for w, c in enumerate(obj["weight_enumerator"]) if c}
            yield f"weight enumerator: {nz}"
        for row in obj["generator_rows"]:
            yield f"generator row: {row}"

    _emit(args, "code", obj, lines)
    return EXIT_OK


def cmd_equiv(args) -> int:
    _code_cost_check(args.n)
    ctx = _tower(args)
    # one stream: alpha is `code --seed`'s, and the map is drawn after it
    rng = random.Random(args.seed)
    alpha = _resolve_alpha(ctx, args.alpha, rng)
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

    def lines():
        yield f"alpha = {obj['alpha_hex']}, map = {obj['map']}"
        yield f"beta  = {obj['beta_hex']}"
        yield f"support permutation: {obj['permutation_cycles']}"
        yield f"verified: {report.verified}"
        if report.weights_alpha is None:
            yield (f"weight enumerators: skipped (dimension above "
                   f"{codes.WEIGHT_ENUM_MAX_DIM})")

    _emit(args, "equiv", obj, lines)
    return EXIT_OK if report.verified else EXIT_MISMATCH


# -------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, n_required: bool = True) -> None:
    p.add_argument("--n", type=int, required=n_required, help="base-field exponent")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--modulus-base", help="override, exponent list like '5,2,0'")
    p.add_argument("--modulus-big", help="override, exponent list like '30,1,0'")


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
    _add_common(p)
    p.add_argument("--workers", type=int, default=1,
                   help="validated (>= 1) and echoed in the report; the "
                        "census runs in one thread")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("fixed", help="fixed-orbit counts per Frobenius power "
                                     f"(n <= {counting.MAX_CLOSED_FORM_N}; "
                                     f"oracle n <= {counting.MAX_SWEEP_N})")
    _add_common(p, n_required=False)  # `--table` reads no n
    p.add_argument("--d", type=int, help="Frobenius power")
    p.add_argument("--table", action="store_true",
                   help="print closed forms for a range of primes")
    p.add_argument("--nmax", type=int, default=61,
                   help=f"largest n for --table (at most {counting.MAX_CLOSED_FORM_N})")
    p.set_defaults(func=cmd_fixed)

    p = sub.add_parser("roots", help="root-count oracles for the named equations "
                                     f"(n <= 16 or a prime n <= {counting.MAX_ROOTS_N})")
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
    p.add_argument("--seed", type=int,
                   help="seed when alpha or the map is 'random': a random alpha "
                        "is code's for the same seed, and the map is drawn after it")
    p.set_defaults(func=cmd_equiv)
    return ap


# what `_parse_request` reads off one subcommand's parser: the namespace's
# fields with their defaults, in argparse's order; each option string of an
# action it reads; and the actions a well-formed request must name
_Table = tuple[dict[str, object], dict[str, argparse.Action], frozenset[argparse.Action]]


def _table(command: argparse.ArgumentParser) -> _Table:
    """The table of `command`, made from argparse's own: the fields are the
    action defaults, then the parser's `set_defaults`; the actions read are
    those that store one value or a constant; the actions to name are the
    required ones and those with a string default, which argparse would
    convert through the option's type."""
    fields = {}
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            fields.setdefault(action.dest, action.default)
    for dest, default in command._defaults.items():
        fields.setdefault(dest, default)
    options = {option: action for option, action in command._option_string_actions.items()
               if isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
               and action.nargs in (None, 0)}
    named = frozenset(action for action in command._actions
                      if action.required or action.type is not None
                      and isinstance(action.default, str))
    return fields, options, named


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, tuple[argparse.ArgumentParser, _Table]]]:
    """The parser, and each subcommand's parser (its subparsers' `choices`)
    with its `_table`, built by the first `main` call, not on import, and
    shared by every later call in the process: parsing reads them and never
    changes them."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return parser, {name: (command, _table(command)) for name, command in commands.items()}


def _parse_request(command: argparse.ArgumentParser, words: list[str],
                   table: _Table | None = None) -> argparse.Namespace:
    """`command.parse_args(words)`, read off `table`, the command's `_table`
    (made here for a parser that `_parsers` did not build), when the words
    are well-formed: each an exact option string of a store or
    store-constant action, each value one word that does not start with '-'
    and passes its option's type and choices, and every required option
    given. Any other argv goes to argparse: help, an abbreviation,
    `--opt=value`, a value that starts with '-' or fails its checks, a
    missing option, or an action read otherwise. So argparse alone defines
    the interface and writes every help, usage and error text."""
    defaults, options, named = _table(command) if table is None else table
    fields = defaults.copy()
    seen = set()
    i = 0
    while i < len(words):
        action = options.get(words[i])
        if action is None:
            break
        if action.nargs == 0:
            value = action.const
            i += 1
        elif i + 1 < len(words) and not words[i + 1].startswith("-"):
            value = words[i + 1]
            i += 2
            if action.type is not None:
                try:
                    value = action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    break
            if action.choices is not None and value not in action.choices:
                break
        else:
            break
        fields[action.dest] = value
        seen.add(action)
    else:
        if named <= seen:
            namespace = argparse.Namespace()
            vars(namespace).update(fields)  # `Namespace(**fields)` without a setattr each
            return namespace
    return command.parse_args(words)


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    # a request is read off its subcommand's table, and argparse parses only
    # what that reading leaves to it (`_parse_request`), with the
    # subcommand's parser alone: the top-level one would match every word
    # against its own options first, then hand them all over. It still reads
    # an argv that names no subcommand (empty, -h, a typo)
    entry = commands.get(argv[0]) if argv else None
    if entry is None:
        args = parser.parse_args(argv)
    else:
        command, table = entry
        args = _parse_request(command, argv[1:], table)
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
    except (ConsistencyError, AssertionError) as exc:
        print(f"falsified internal claim: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
