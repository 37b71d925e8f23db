"""The package holds what its users reach: every function, method and class
of `src/goppa_orbits`, private ones included, is reached, by name, from the
`cli` entry points (every `cmd_*`, `main`, `build_parser`, and the modules'
top-level statements) or from a name the benchmark traces
(`TRACED_FUNCTIONS` in `bench/run.py`). Dunder methods are exempt, and run
whenever their class is reached. Code that only tests call belongs in
`tests/`. The names that only the benchmark reaches are listed exactly, so
no new one joins them."""

import ast
from pathlib import Path

from conftest import load_bench_run

PKG = Path(__file__).resolve().parent.parent / "src" / "goppa_orbits"


def unreached(traced):
    defs, roots = {}, []  # defs: name -> [(module, qualname, node)]
    for path in sorted(PKG.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.append(node)  # top-level statements run on import
                continue
            members = [(node.name, node)] + [
                (f"{node.name}.{item.name}", item) for item in node.body
                if isinstance(node, ast.ClassDef) and isinstance(item, ast.FunctionDef)]
            for qualname, item in members:
                name = item.name
                defs.setdefault(name, []).append((module, qualname, item))
                if (f"{module}.{name}" in traced or module == "cli"
                        and (name.startswith("cmd_") or name in ("main", "build_parser"))):
                    roots.append(item)
    reached, stack = {id(node) for node in roots}, roots
    while stack:
        node = stack.pop()
        # a class runs its body statements and dunders; other methods run by name
        parts = [node] if not isinstance(node, ast.ClassDef) else [
            item for item in node.body if not isinstance(item, ast.FunctionDef)
            or item.name.startswith("__") and item.name.endswith("__")]
        for sub in (sub for part in parts for sub in ast.walk(part)):
            ref = (sub.id if isinstance(sub, ast.Name)
                   else sub.attr if isinstance(sub, ast.Attribute) else None)
            for _, _, target in defs.get(ref, ()):
                if id(target) not in reached:
                    reached.add(id(target))
                    stack.append(target)
    return sorted(f"{module}.{qualname}"
                  for name, entries in defs.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  for module, qualname, node in entries if id(node) not in reached)


def test_every_public_name_is_reached_from_the_cli_or_the_benchmark(monkeypatch):
    assert unreached(set(load_bench_run(monkeypatch).TRACED_FUNCTIONS)) == []


# kept alive only by the benchmark's traced names, until the next change to
# `bench/` drops them; a new name reached from nowhere else fails here
BENCHMARK_ONLY = [
    "codes.extend_code",
    "codes.goppa_code",  # `code` builds its parity columns once, for both reductions
    "codes.nullspace",  # the tests' parity oracle; `code` reduces the parity rows
    "gf2poly._ascending_masks",  # the candidates of lowest_irreducible
    "gf2poly.lowest_irreducible",
    "gf2tower.Tower.inv_batch",
    "mobius.pgl_orbit_array",
    "mobius.suborbit_representatives",
]


def test_the_names_only_the_benchmark_reaches_are_pinned():
    assert unreached(set()) == BENCHMARK_ONLY
