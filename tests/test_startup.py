"""Start-up guard: only the sweeps import numpy and the scan module, and
nothing imports `dataclasses` or `inspect`.

Importing the CLI, building a tower and every scalar command run in a fresh
interpreter where none of numpy, `dataclasses` and `inspect` can be
imported, import no `goppa_orbits.scan`, and their reports equal the
goldens; a census or a fixed-point count by sweep imports numpy and the
scan. In `src/` numpy is imported only by the scan at module level and by
the few functions pinned here, and the scan only inside functions.
`dataclasses` brings in `inspect`, `ast`, `dis` and `tokenize`, the largest
import a scalar command would pay for, so the package's records are
`NamedTuple`s, immutable values like frozen dataclasses. The package's own
`__init__` binds no name and imports no submodule, and the CLI binds `codes`
and `mobius` unrun (`cli._lazy`), so that only `code` and `equiv` run them.
This is the one check of the CLI's imports: no workflow step profiles them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goppa_orbits.codes import BinaryCode, EquivalenceReport
from goppa_orbits.counting import OrbitCensus, RootCounts
from goppa_orbits.mobius import SemiLinearMap
from test_golden import GOLDEN, GOLDEN_DIR

SRC = Path(__file__).resolve().parent.parent / "src"

# each entry of argv[1] is run by cli.main with --json; prints one
# {"argv", "exit", "report"} record per entry (the golden file layout, without
# `elapsed_ms`), then whether numpy and the scan were imported
CHILD = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None  # `import numpy` now raises ImportError
    sys.modules["dataclasses"] = None
    sys.modules["inspect"] = None
import goppa_orbits.cli
from goppa_orbits.gf2tower import make_tower
assert sys.modules.get("numpy") is None, "importing the CLI imported numpy"
assert "goppa_orbits.scan" not in sys.modules, "importing the CLI imported the scan"
for n in range(2, 17):
    make_tower(n)
assert sys.modules.get("numpy") is None, "building a tower imported numpy"
assert "goppa_orbits.scan" not in sys.modules, "building a tower imported the scan"
records = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = goppa_orbits.cli.main([*argv, "--json"])
    report = json.loads(buf.getvalue())
    report.pop("elapsed_ms", None)
    records.append({"argv": argv, "exit": code, "report": report})
scan = "goppa_orbits.scan" in sys.modules
assert sys.argv[2] == "open" or not scan, "a scalar command imported the scan"
print(json.dumps({"records": records, "numpy": sys.modules.get("numpy") is not None,
                  "scan": scan}))
"""

SCALAR = ["bound_n5", "fixed_table", "code_n5_seed1", "equiv_n5_seed1"] + [
    name for name in GOLDEN if name.startswith("roots_n5_")]


def run_python(*args):
    """`python -c *args` in a fresh interpreter that imports the package from `src/`."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run_child(argvs, mode):
    proc = run_python(CHILD, json.dumps(argvs), mode)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scalar_commands_run_without_numpy():
    assert len(SCALAR) == 9
    out = run_child([GOLDEN[name] for name in SCALAR], "block")
    assert not out["numpy"] and not out["scan"]
    for name, record in zip(SCALAR, out["records"]):
        assert record == json.loads((GOLDEN_DIR / f"{name}.json").read_text()), name
        assert record["exit"] == 0, name


@pytest.mark.parametrize("argv", [["census", "--n", "2"], ["fixed", "--n", "2", "--d", "3"]])
def test_sweeps_import_numpy(argv):
    """The guard can fail: a sweep imports numpy and the scan, and only there."""
    out = run_child([argv], "open")
    assert out["records"][0]["exit"] == 0
    assert out["numpy"] and out["scan"]


# runs the request in argv[1], if any, by cli.main, or else builds the tower
# the benchmark's set-up probe builds; prints whether `codes` and `mobius`
# have run. `type()` reads no attribute of the module, so it runs neither
LAZY_CHILD = """
import contextlib, io, json, sys, types
import goppa_orbits.cli
from goppa_orbits.gf2tower import make_tower
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert goppa_orbits.cli.main(argv) == 0, argv
else:
    make_tower(4)
print(json.dumps([type(sys.modules[m]) is types.ModuleType
                  for m in ("goppa_orbits.codes", "goppa_orbits.mobius")]))
"""


@pytest.mark.parametrize("argv, runs", [
    ([], False),
    (["bound", "--n", "5"], False),
    (["fixed", "--table", "--nmax", "13"], False),
    (["roots", "--n", "5", "--which", "eq_3n"], False),
    (["census", "--n", "3"], False),
    (["code", "--n", "5", "--alpha", "random", "--seed", "1"], True),
    (["equiv", "--n", "5", "--alpha", "random", "--map", "random", "--seed", "1"], True),
])
def test_only_code_and_equiv_run_codes_and_mobius(argv, runs):
    """`cli` binds both modules unrun: importing the CLI and building a tower,
    or serving `bound`, `fixed`, `roots` or `census`, never compiles or runs
    them, and a `code` or `equiv` request runs both."""
    proc = run_python(LAZY_CHILD, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [runs, runs]


def test_the_package_binds_no_name_and_imports_no_submodule():
    """`import goppa_orbits` runs the package's docstring alone: every name
    is imported from the module that defines it."""
    probe = ("import json, sys\n"
             "import goppa_orbits\n"
             "modules = [k for k in sys.modules if k.startswith('goppa_orbits.')]\n"
             "names = [k for k in vars(goppa_orbits) if not k.startswith('__')]\n"
             "print(json.dumps([modules, names]))\n")
    proc = run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def import_sites(imports):
    """(module, place) of every import statement in `src/` that imports(node)
    accepts, place the qualified name of the function or class that holds
    it, "<module>" at module level, or "<TYPE_CHECKING>" under
    `if TYPE_CHECKING:`, which never runs."""
    sites = []

    def walk(module, node, place):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if place == "<module>" else f"{place}.{child.name}"
                walk(module, child, inner)
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                walk(module, child, "<TYPE_CHECKING>")
            else:
                if isinstance(child, (ast.Import, ast.ImportFrom)) and imports(child):
                    sites.append((module, place))
                walk(module, child, place)

    for path in sorted((SRC / "goppa_orbits").glob("*.py")):
        walk(path.stem, ast.parse(path.read_text()), "<module>")
    return sorted(sites)


def imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return node.level == 0 and node.module.split(".")[0] == "numpy"


def imports_scan(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "goppa_orbits.scan" for alias in node.names)
    return (node.module == "goppa_orbits.scan" or node.level == 1 and (
        node.module == "scan" or node.module is None
        and any(alias.name == "scan" for alias in node.names)))


def test_numpy_and_the_scan_are_imported_only_where_pinned():
    """The scan imports numpy at module level; the byte tables of `Tower`
    (`frob_tables` and `apply_tables` are names the benchmark traces) and
    `mobius`'s two orbit builders import it on their call. No module imports
    the scan at module level: the census cache and the orbit builders
    import it on their call."""
    assert import_sites(imports_numpy) == [
        ("gf2tower", "<TYPE_CHECKING>"),
        ("gf2tower", "Tower._byte_tables"),
        ("gf2tower", "_chunk_tables"),
        ("mobius", "<TYPE_CHECKING>"),
        ("mobius", "pgl_orbit_array"),
        ("mobius", "suborbit_representatives"),
        ("scan", "<module>"),
    ]
    assert import_sites(imports_scan) == [
        ("counting", "_sweep"),
        ("mobius", "pgl_orbit_array"),
        ("mobius", "suborbit_representatives"),
    ]


RECORDS = {
    "SemiLinearMap": lambda: SemiLinearMap(a=1, b=0, c=2, d=1, frob=3),
    "BinaryCode": lambda: BinaryCode(length=5, generator=(0b10011, 0b01101)),
    "EquivalenceReport": lambda: EquivalenceReport(
        alpha=6, beta=9, map=SemiLinearMap(1, 0, 0, 1, 0), permutation=(1, 0, 2),
        verified=True, weights_alpha=(1, 0, 3), weights_beta=None),
    "OrbitCensus": lambda: OrbitCensus(
        n=2, records=((5, 1), (7, 2)), t_counts=((1, 1), (2, 1)), pgl_orbit_size=60,
        pgl_orbit_count=3, elements_visited=180, elapsed_ms=1.5),
    "RootCounts": lambda: RootCounts("eq_3n", 32704, 32640, 64, 0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    """Assigning to a field raises AttributeError, and equal fields give
    equal, equally hashed records, as for a frozen dataclass. A record also
    compares equal to the plain tuple of its fields."""
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record == tuple(record) != record._replace(**{record._fields[0]: None})
