"""The benchmark's traced names must exist: `bench/run.py --trace 1` reads
the stats of every name in TRACED_FUNCTIONS and fails on a missing one."""

import json
import os

import goppa_orbits.cli  # noqa: F401  (binds every traced layer)
from conftest import BENCH, load_bench_run
from test_startup import run_python


def test_every_traced_function_is_wrapped(monkeypatch):
    bench_run = load_bench_run(monkeypatch)
    tracer = bench_run.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.stats)
    finally:
        tracer.uninstall()
    assert [name for name in bench_run.TRACED_FUNCTIONS if name not in wrapped] == []


# the benchmark's order in a fresh interpreter: import the CLI, install the
# tracer before any request, then serve one; prints whether `codes` and
# `mobius` were still unrun at install, the names the tracer missed, and the
# calls it counted
TRACED_CHILD = """
import contextlib, importlib.util, io, json, os, sys, types
import goppa_orbits.cli
layers = ("goppa_orbits.codes", "goppa_orbits.mobius")
unrun = [type(sys.modules.get(m)) is not types.ModuleType for m in layers]
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_run", os.path.join(sys.argv[1], "run.py"))
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)
tracer = bench_run.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = goppa_orbits.cli.main(["equiv", "--n", "5", "--alpha", "random", "--map",
                                  "random", "--seed", "3", "--json"])
tracer.uninstall()
print(json.dumps({
    "unrun": unrun, "exit": code,
    "missing": [name for name in bench_run.TRACED_FUNCTIONS if name not in tracer.stats],
    "calls": [tracer.calls(name) for name in ("codes.check_extended_equivalence",
                                              "mobius.apply_map")]}))
"""


def test_a_tracer_installed_first_wraps_the_lazy_layers():
    """`cli` binds `codes` and `mobius` unrun, in `sys.modules`; the tracer,
    which reads every layer from there, runs them and wraps every traced
    name, so an `equiv` request served after it is counted. A layer kept out
    of `sys.modules` until a command imports it fails here."""
    proc = run_python(TRACED_CHILD, os.fspath(BENCH))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["unrun"] == [True, True]
    assert out["exit"] == 0 and out["missing"] == []
    checks, maps = out["calls"]
    assert checks == 1 and maps >= 1
