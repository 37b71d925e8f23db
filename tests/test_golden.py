"""Golden CLI reports: each command's JSON report, with `elapsed_ms` removed,
must equal the file recorded under tests/golden/.

Re-record after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from goppa_orbits.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _golden_commands() -> dict[str, list[str]]:
    cmds = {f"bound_n{n}": ["bound", "--n", str(n)] for n in (5, 7)}
    cmds.update({f"census_n{n}": ["census", "--n", str(n)] for n in (3, 4)})
    cmds["fixed_table"] = ["fixed", "--n", "5", "--table"]
    cmds.update({f"fixed_n4_d{d}": ["fixed", "--n", "4", "--d", str(d)]
                 for d in (1, 2, 3, 4, 6, 8, 12, 24)})
    cmds.update({f"roots_n5_{w}": ["roots", "--n", "5", "--which", w]
                 for w in ("eq_3n", "eq_2n_affine", "eq_41", "eq_deg8",
                           "fixed_field_64")})
    cmds.update({f"code_n{n}_seed{s}": ["code", "--n", str(n), "--alpha", "random",
                                        "--seed", str(s), "--extended"]
                 for n in (5, 7) for s in range(3)})
    cmds.update({f"equiv_n5_seed{s}": ["equiv", "--n", "5", "--alpha", "random",
                                       "--map", "random", "--seed", str(s)]
                 for s in range(5)})
    return cmds


GOLDEN = _golden_commands()


def report(argv: list[str]) -> dict:
    """Exit code and JSON report of one command, without `elapsed_ms`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--json"])
    obj = json.loads(buf.getvalue())
    obj.pop("elapsed_ms", None)
    return {"argv": argv, "exit": code, "report": obj}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert report(GOLDEN[name]) == expected


def test_golden_files_match_commands():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(GOLDEN)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        text = json.dumps(report(argv), indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text)
    print(f"recorded {len(GOLDEN)} reports in {GOLDEN_DIR}", file=sys.stderr)
