"""Self-tests of the benchmark: tracer counts, expected values, metric names.

    python3 -m pytest -q bench/test_trace.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from goppa_orbits import cli, gf2tower, mobius  # noqa: E402


def _traced(argv):
    tracer = Tracer()
    out = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return tracer, rc, json.loads(out.getvalue())


def _counts(tracer):
    return {name: st[0] for name, st in tracer.stats.items()}, tracer.elems


def test_traced_census_matches_its_report():
    argv = ["census", "--n", "3", "--workers", "1", "--json"]
    tracer, rc, report = _traced(argv)
    assert rc == 0
    assert tracer.calls("counting.global_orbit_census") == 1
    assert tracer.calls("gf2tower.make_tower") == 1  # reached through cli's own binding
    assert tracer.calls("mobius.pgl_orbit_array") == report["orbit_count"] == 33
    # every claimed orbit expands t - 1 Frobenius images of its linear orbit
    assert tracer.elems == sum(
        (o["pgl_orbits"] - 1) * (o["size"] // o["pgl_orbits"]) for o in report["orbits"])
    assert tracer.calls("gf2tower.apply_tables") == sum(
        o["pgl_orbits"] - 1 for o in report["orbits"])

    again, _, _ = _traced(argv)
    assert _counts(again) == _counts(tracer)


def test_uninstall_restores_every_binding():
    mul, apply_tables = gf2tower.Tower.mul, gf2tower.Tower.__dict__["apply_tables"]
    _traced(["equiv", "--n", "5", "--alpha", "random", "--map", "random",
             "--seed", "3", "--json"])
    assert gf2tower.Tower.mul is mul
    assert gf2tower.Tower.__dict__["apply_tables"] is apply_tables
    assert cli.make_tower is gf2tower.make_tower
    assert not hasattr(mobius.apply_map, "__wrapped__")


def test_by_name_imports_are_traced():
    tracer, rc, _ = _traced(["equiv", "--n", "5", "--alpha", "random", "--map", "random",
                             "--seed", "3", "--json"])
    assert rc == 0
    # codes imports apply_map by name: the alpha image plus one per support point
    assert tracer.calls("mobius.apply_map") == 1 + (1 << 5) + 1
    assert set(run.TRACED_FUNCTIONS) <= set(tracer.stats)


def test_expected_values_are_consistent():
    for n, (orbits, linear, hist) in workloads.CENSUS_COUNTS.items():
        fixed = workloads.FIXED_COUNTS[n]
        assert sorted(fixed) == workloads.divisors(6 * n)
        assert fixed[6 * n] == linear
        # Burnside over the Frobenius group of order 6n
        assert sum(c * workloads.euler_phi(6 * n // d) for d, c in fixed.items()) \
            == 6 * n * orbits
        assert sum(int(s) * c for s, c in hist.items()) == workloads.degree_six_count(n)
        assert sum(hist.values()) == orbits
    assert workloads.bound_numerator(5) // 30 == 1131
    assert workloads.bound_numerator(7) // 42 == 50333
    assert workloads.degree_six_count(5) == 1073708064


def test_rounds_depend_only_on_the_seed():
    for name, make in workloads.ROUNDS.items():
        first = [op.argv for op in make(7, 2)[0]]
        assert first == [op.argv for op in make(7, 2)[0]]
        assert first != [op.argv for op in make(8, 2)[0]], name


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
