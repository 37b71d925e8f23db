"""The benchmark's traced names must exist: `bench/run.py --trace 1` reads
the stats of every name in TRACED_FUNCTIONS and fails on a missing one."""

import goppa_orbits.cli  # noqa: F401  (imports every traced layer)
from conftest import load_bench_run


def test_every_traced_function_is_wrapped(monkeypatch):
    bench_run = load_bench_run(monkeypatch)
    tracer = bench_run.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.stats)
    finally:
        tracer.uninstall()
    assert [name for name in bench_run.TRACED_FUNCTIONS if name not in wrapped] == []
