"""The benchmark's traced names must exist: `bench/run.py --trace 1` reads
the stats of every name in TRACED_FUNCTIONS and fails on a missing one."""

import importlib.util
from pathlib import Path

import goppa_orbits.cli  # noqa: F401  (imports every traced layer)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_function_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    tracer = bench_run.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.stats)
    finally:
        tracer.uninstall()
    assert [name for name in bench_run.TRACED_FUNCTIONS if name not in wrapped] == []
