"""Golden CLI reports: each command's JSON report, with `elapsed_ms` removed,
must equal the file recorded under tests/golden/, its `--json` stdout must be
exactly the `json.dumps(..., sort_keys=True)` line of that report, and its
text output (census's elapsed time masked) must equal the `.txt` file
recorded beside it.

Re-record both after a deliberate change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
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

# the one line of text output that varies between runs: census's timing
_ELAPSED = re.compile(r"elapsed [0-9.]+ ms")


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def report(argv: list[str]) -> dict:
    """Exit code and JSON report of one command, without `elapsed_ms`."""
    code, out = run([*argv, "--json"])
    obj = json.loads(out)
    obj.pop("elapsed_ms", None)
    return {"argv": argv, "exit": code, "report": obj}


def text(argv: list[str]) -> str:
    """Exit code and text output of one command, census's elapsed time masked."""
    code, out = run(argv)
    return f"exit {code}\n" + _ELAPSED.sub("elapsed <masked> ms", out)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert report(GOLDEN[name]) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_report_is_one_sorted_dumps_line(name):
    """The goldens compare parsed objects; this pins the bytes: separators,
    key order and `ensure_ascii` are those of `json.dumps(sort_keys=True)`."""
    _, out = run([*GOLDEN[name], "--json"])
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_text(name):
    assert text(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.txt").read_text()


def test_golden_files_match_commands():
    for suffix in ("json", "txt"):
        assert sorted(p.stem for p in GOLDEN_DIR.glob(f"*.{suffix}")) == sorted(GOLDEN)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        record = json.dumps(report(argv), indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(record)
        (GOLDEN_DIR / f"{name}.txt").write_text(text(argv))
    print(f"recorded {len(GOLDEN)} JSON reports and {len(GOLDEN)} text outputs "
          f"in {GOLDEN_DIR}", file=sys.stderr)
