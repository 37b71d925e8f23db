"""Benchmark for goppa-orbits, driven through `goppa_orbits.cli.main(argv)`.

    python3 bench/run.py --workload census|requests|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from `src/` and
nothing else. Each invocation is one fresh process, so no module cache
(`counting._SWEEP_CACHE`) or per-tower table cache carries over between
runs. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the run's
environment, every metric with its unit and sample count, each failed
operation with its argv and reason, and the known-defect probe.

`--trace 0` measures the end-to-end metrics. `--trace 1` runs rounds in
pairs, one untraced and one with every layer's public functions wrapped
(see tracer.py), and reports the per-layer metrics from the traced rounds
together with the tracing overhead. `--workload all` runs every workload
in its own process and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_SECONDS, reference_seconds
from tracer import LAYERS, Tracer
from workloads import KNOWN_DEFECT, ROUNDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
SECONDS_PER_TRACE_PAIR = 4

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
    "req_p50_ms": "ms", "req_p99_ms": "ms",
}
TRACED_FUNCTIONS = (
    "cli.main", "schema.validate",
    "counting.global_orbit_census", "counting.fixed_point_oracle",
    "counting.root_count_oracle",
    "mobius.pgl_orbit_array", "mobius.suborbit_representatives",
    "mobius.apply_map", "mobius.random_map", "mobius.random_degree_six",
    "codes.goppa_code", "codes.subfield_subcode", "codes.rref", "codes.nullspace",
    "codes.extend_code", "codes.weight_enumerator",
    "codes.check_extended_equivalence",
    "gf2tower.make_tower", "gf2tower.mul", "gf2tower.inv", "gf2tower.inv_batch",
    "gf2tower.frobenius", "gf2tower.minimal_polynomial", "gf2tower.frob_tables",
    "gf2tower.apply_tables", "gf2tower.solve_affine_linearized",
    "gf2poly.lowest_irreducible", "gf2poly.is_irreducible",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.{part}": unit for name in TRACED_FUNCTIONS
       for part, unit in (("calls", "count"), ("s", "s"))},
    "gf2tower.apply_tables.elems": "count",
    "gf2tower.apply_tables.bytes_computed": "B",
    "report.census.orbits": "count",
    "report.census.pgl_orbits": "count",
    "report.census.elements": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter: the time to import the CLI (with numpy) and
# build the run's first tower, i.e. until the first operation can begin,
# then the reference loop's time in the same process.
SETUP_CHILD = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import goppa_orbits.cli
from goppa_orbits.gf2poly import from_exponents
from goppa_orbits.gf2tower import make_tower
big = sys.argv[3]
make_tower(int(sys.argv[2]),
           modulus_big=from_exponents([int(e) for e in big.split(",")]) if big else None)
elapsed = time.perf_counter() - t0
if not goppa_orbits.cli.__file__.startswith(sys.argv[1]):
    sys.exit("goppa_orbits was not imported from the checkout")
sys.path.insert(0, sys.argv[4])
from reference import reference_seconds
print(repr(elapsed), repr(statistics.median(reference_seconds() for _ in range(3))))
"""


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def first_tower(ops) -> tuple[str, str]:
    argv = list(ops[0].argv)
    big = argv[argv.index("--modulus-big") + 1] if "--modulus-big" in argv else ""
    return argv[argv.index("--n") + 1], big


def measure_setup(n: str, big: str) -> tuple[list[float], list[float]]:
    """Set-up seconds and reference-loop seconds of fresh processes."""
    setup, refs = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), n, big, str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        seconds, ref = map(float, proc.stdout.split())
        setup.append(seconds)
        refs.append(ref)
    return setup, refs


def run_op(cli, argv) -> tuple[int, float, str, str]:
    """One CLI invocation: exit code, seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


class Run:
    """Latencies, failures and census counters of one benchmark process."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.latencies: list[float] = []
        self.failures: list[tuple[tuple[str, ...], str]] = []
        self.census = [0, 0, 0]  # orbits, linear orbits, elements

    def round(self, ops, count_census: bool = False) -> float:
        t0 = time.perf_counter()
        for op in ops:
            rc, seconds, out, err = run_op(self.cli, op.argv)
            self.latencies.append(seconds)
            try:
                report = json.loads(out) if out else None
            except ValueError:
                report = None
            reason = op.check(rc, report)
            if reason:
                detail = err.strip().splitlines()[-1:] if err.strip() else []
                self.failures.append((op.argv, "; ".join([reason] + detail)))
            elif count_census and op.argv[0] == "census":
                self.census[0] += report["orbit_count"]
                self.census[1] += report["pgl_orbit_count"]
                self.census[2] += report["elements_visited"]
        return time.perf_counter() - t0


def measure(run: Run, workload: str, seed: int, seconds: int):
    """Rounds until --seconds have passed, with the reference loop timed
    before the first round and after each one. Returns each round's wall
    seconds, its reference seconds (mean of the loops on either side) and
    the index of its first operation in run.latencies."""
    walls, refs, firsts, moduli = [], [reference_seconds()], [], set()
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        ops, round_moduli = ROUNDS[workload](seed, r)
        moduli.update(round_moduli)
        firsts.append(len(run.latencies))
        walls.append(run.round(ops))
        refs.append(reference_seconds())
        r += 1
    round_refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return walls, round_refs, firsts, moduli


def measure_traced(run: Run, workload: str, seed: int, seconds: int):
    """Round pairs, alternating which of the two goes first. The pair count
    depends only on --seconds, so counts repeat exactly for a seed."""
    tracer = Tracer()
    traced, plain, moduli = [], [], set()
    for r in range(max(1, seconds // SECONDS_PER_TRACE_PAIR)):
        ops, round_moduli = ROUNDS[workload](seed, r)
        moduli.update(round_moduli)
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run.round(ops))
                continue
            tracer.install()
            try:
                traced.append(run.round(ops, count_census=True))
            finally:
                tracer.uninstall()
    return tracer, traced, plain, moduli


def per_layer_metrics(tracer: Tracer, run: Run, traced, plain) -> dict:
    values = {f"{layer}.self_s": tracer.self_seconds(layer) for layer in LAYERS}
    for name in TRACED_FUNCTIONS:
        values[f"{name}.calls"] = tracer.calls(name)
        values[f"{name}.s"] = tracer.seconds(name)
    values["gf2tower.apply_tables.elems"] = tracer.elems
    values["gf2tower.apply_tables.bytes_computed"] = tracer.bytes_computed
    values["report.census.orbits"] = run.census[0]
    values["report.census.pgl_orbits"] = run.census[1]
    values["report.census.elements"] = run.census[2]
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def end_to_end_metrics(run: Run, setup, setup_refs, walls, refs, firsts):
    """Values and sample notes; times in reference seconds, i.e. measured
    seconds * REF_SECONDS / the reference loop's time next to them."""
    scale = [REF_SECONDS / ref for ref in refs]
    ms = [1e3 * t * scale[bisect.bisect_right(firsts, i) - 1]
          for i, t in enumerate(run.latencies)]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(
            t * REF_SECONDS / ref for t, ref in zip(setup, setup_refs)),
        "wall_s": statistics.median(w * k for w, k in zip(walls, scale)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "req_p50_ms": cuts[49],
        "req_p99_ms": cuts[98],
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes; "
                   f"measured median {statistics.median(setup)!r} s",
        "wall_s": f"median of {len(walls)} rounds; "
                  f"measured median {statistics.median(walls)!r} s",
        "peak_rss_mib": "max resident set of this process",
        "req_p50_ms": f"{len(ms)} operations",
        "req_p99_ms": f"{len(ms)} operations",
    }
    return values, samples


def probe_known_defect(cli, seed: int) -> str:
    argv = KNOWN_DEFECT + ("--seed", str(seed), "--json")
    rc, _, _, err = run_op(cli, argv)
    message = err.strip().splitlines()[-1] if err.strip() else ""
    return f"known defect: {' '.join(argv)} -> exit {rc}: {message}"


def run_workload(args) -> int:
    if not (SRC / "goppa_orbits" / "cli.py").is_file():
        return fail(f"no program source at {SRC}; run from the root of a checkout")
    workload, seed, seconds = args.workload, args.seed, args.seconds
    setup, setup_refs = [], []
    if not args.trace:
        try:
            setup, setup_refs = measure_setup(*first_tower(ROUNDS[workload](seed, 0)[0]))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))

    sys.path.insert(0, str(SRC))
    import numpy
    from goppa_orbits import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return fail(f"goppa_orbits imported from {cli.__file__}, not {SRC}")

    run = Run(cli)
    notes = []
    if workload == "requests":
        notes.append(probe_known_defect(cli, seed))
    if args.trace:
        tracer, traced, plain, moduli = measure_traced(run, workload, seed, seconds)
        values = per_layer_metrics(tracer, run, traced, plain)
        units = PER_LAYER
        samples = {name: f"{len(traced)} traced rounds" for name in units}
        samples["trace.untraced_wall_s"] = f"median of {len(plain)} untraced rounds"
    else:
        walls, refs, firsts, moduli = measure(run, workload, seed, seconds)
        values, samples = end_to_end_metrics(run, setup, setup_refs, walls, refs, firsts)
        units = END_TO_END
        notes.append(f"reference loop: median {statistics.median(refs)!r} s between "
                     f"rounds, {statistics.median(setup_refs)!r} s in the set-up "
                     f"processes; times above are scaled to {REF_SECONDS} s")

    attempted, failed = len(run.latencies), len(run.failures)
    print("info " + json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "moduli_big": sorted(moduli)}))
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit} ({samples[name]})")
    print(f"metric fail_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    for argv, reason in run.failures:
        print(f"FAILED {' '.join(argv)}: {reason}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; their lines, then one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            return fail(f"workload {workload} printed no result")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
