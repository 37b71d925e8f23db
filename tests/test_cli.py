import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goppa_orbits import schema
from goppa_orbits.cli import _ROOT_EXPECTED, main
from goppa_orbits.gf2tower import Tower

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, kind, *argv):
    code, out, err = run(capsys, *argv)
    obj = json.loads(out)
    schema.validate(kind, obj)
    return code, obj, err


def test_bound_values(capsys):
    code, obj, _ = run_json(capsys, "bound", "bound", "--n", "5", "--json")
    assert code == 0
    assert obj["bound"] == 1131
    assert obj["numerator"] == 33930
    assert obj["match"] is True
    code, obj, _ = run_json(capsys, "bound", "bound", "--n", "7", "--json")
    assert code == 0 and obj["bound"] == 50333


def test_bound_text_mode(capsys):
    code, out, _ = run(capsys, "bound", "--n", "5")
    assert code == 0
    assert "1131" in out and "33930" in out


def test_bound_rejects_nonprime(capsys):
    code, _, err = run(capsys, "bound", "--n", "4")
    assert code == 2
    assert "prime" in err


def test_census_small(capsys):
    code, obj, _ = run_json(capsys, "census", "census", "--n", "2", "--json")
    assert code == 0
    assert obj["orbit_count"] == 8
    assert obj["match"] is None  # outside the closed-form hypotheses
    assert obj["elements_visited"] == 4020


def test_census_worker_independence(capsys):
    _, one, _ = run_json(capsys, "census", "census", "--n", "3", "--json",
                         "--workers", "1")
    _, eight, _ = run_json(capsys, "census", "census", "--n", "3", "--json",
                           "--workers", "8")
    one.pop("elapsed_ms"), eight.pop("elapsed_ms")
    one.pop("workers"), eight.pop("workers")
    assert one == eight


def test_census_refuses_n8(capsys):
    code, _, err = run(capsys, "census", "--n", "8")
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "n=8" in err and "4311810305 classes" in err and "n <= 7" in err


def test_census_help_states_the_sweep_limit(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "full orbit census (n <= 7)" in capsys.readouterr().out


def test_fixed_reports_skipped_oracle(capsys):
    code, out, _ = run(capsys, "fixed", "--n", "11", "--d", "11")
    assert code == 0
    assert "oracle: skipped (n > 7)" in out
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "11", "--d", "11",
                            "--json")
    assert code == 0
    assert obj["oracle"] is None and obj["closed_form"] == 0


def test_closed_pipe_ends_with_one_line(tmp_path):
    """The reader stops after one line: exit 4 and one stderr line, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen(
            [sys.executable, "-m", "goppa_orbits.cli", "census", "--n", "5", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()  # the report is over 64 KiB, more than the pipe holds
        err = proc.stderr.read().decode()
    assert first == b"{\n" and proc.returncode == 4
    assert err == "error: the output pipe was closed before the report was written\n"


@pytest.mark.slow
def test_census_n6_has_no_bound(capsys):
    code, out, _ = run(capsys, "census", "--n", "6")
    assert code == 0
    assert "(n outside the closed-form hypotheses; census only)" in out
    assert "bound" not in out


def test_fixed_single_power(capsys):
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "2", "--d", "6",
                            "--json")
    assert code == 0
    assert obj["oracle"] == 15
    assert obj["closed_form"] is None
    assert obj["order"] == 2


def test_fixed_requires_d(capsys):
    code, _, err = run(capsys, "fixed", "--n", "2")
    assert code == 2


def test_fixed_table(capsys):
    code, obj, _ = run_json(capsys, "fixed_table", "fixed", "--n", "5",
                            "--table", "--nmax", "13", "--json")
    assert code == 0
    assert obj["n_values"] == [5, 7, 11, 13]
    row5 = obj["rows"][0]
    assert row5["bound"] == 1131
    assert row5["counts"]["15"] == 1023


def test_roots_solver_path(capsys):
    code, obj, _ = run_json(capsys, "roots", "roots", "--n", "5", "--which",
                            "eq_deg8", "--json")
    assert code == 0
    assert obj["in_degree_six"] == 6
    assert obj["match"] is True
    code, obj, _ = run_json(capsys, "roots", "roots", "--n", "2", "--which",
                            "eq_3n", "--json")
    assert code == 0
    assert obj["match"] is None


def test_code_command(capsys):
    code, obj, _ = run_json(capsys, "code", "code", "--n", "5", "--alpha",
                            "random", "--seed", "1", "--extended", "--json")
    assert code == 0
    assert obj["length"] == 33
    assert obj["extended"] is True
    enum = obj["weight_enumerator"]
    assert sum(enum) == 1 << obj["dimension"]
    assert all(c == 0 for w, c in enumerate(enum) if w % 2 == 1)
    # deterministic given the seed
    code2, obj2, _ = run_json(capsys, "code", "code", "--n", "5", "--alpha",
                              "random", "--seed", "1", "--extended", "--json")
    assert obj2 == obj
    # the echoed alpha can be fed back explicitly
    code3, obj3, _ = run_json(capsys, "code", "code", "--n", "5", "--alpha",
                              obj["alpha_hex"], "--extended", "--json")
    assert obj3 == obj


def test_code_rejects_low_degree_alpha(capsys):
    code, _, err = run(capsys, "code", "--n", "5", "--alpha", "00000001")
    assert code == 2
    assert "degree 6" in err


def test_equiv_random(capsys):
    code, obj, _ = run_json(capsys, "equiv", "equiv", "--n", "5", "--alpha",
                            "random", "--map", "random", "--seed", "3",
                            "--json")
    assert code == 0
    assert obj["verified"] is True
    assert obj["weight_enumerator_alpha"] == obj["weight_enumerator_beta"]


def test_equiv_skips_weights_above_budget(capsys):
    # the extended n = 7 code has dimension 86, past WEIGHT_ENUM_MAX_DIM
    argv = ("equiv", "--n", "7", "--alpha", "random", "--map", "random",
            "--seed", "3")
    code, obj, _ = run_json(capsys, "equiv", *argv, "--json")
    assert code == 0
    assert obj["verified"] is True
    assert obj["weight_enumerator_alpha"] is None
    assert obj["weight_enumerator_beta"] is None
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "weight enumerators: skipped" in out


def test_equiv_explicit_map(capsys):
    code, obj, _ = run_json(capsys, "equiv", "equiv", "--n", "2", "--alpha",
                            "random", "--map", "1,1,1,0;7", "--seed", "4",
                            "--json")
    assert code == 0
    assert obj["map"] == "1,1,1,0;7"


def test_equiv_bad_map_string(capsys):
    code, _, err = run(capsys, "equiv", "--n", "2", "--alpha", "random",
                       "--map", "1,1;bad", "--seed", "0")
    assert code == 2


def test_modulus_override_flag(capsys):
    code, obj, _ = run_json(capsys, "census", "census", "--n", "2", "--json",
                            "--modulus-big", "12,6,4,1,0")
    assert code == 0
    assert obj["orbit_count"] == 8  # the count is basis-independent


def test_modulus_exponent_out_of_range_exit_2(capsys):
    for flag, limit in (("--modulus-base", 5), ("--modulus-big", 30)):
        code, out, err = run(capsys, "code", "--n", "5", "--alpha", "random",
                             flag, "99999999999999999999")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"0..{limit}" in err


def test_bad_workers_exit_2(capsys):
    code, out, err = run(capsys, "census", "--n", "2", "--workers", "0")
    assert code == 2 and out == ""
    assert err == "error: workers must be positive\n"


def test_roots_linear_equations_match_at_n11_and_n13(capsys):
    # above 6n = 63 bits: the counts are ranks, so no root is held in an int64
    for n in (11, 13):
        for which in ("eq_3n", "eq_2n_affine", "eq_deg8", "fixed_field_64"):
            code, obj, _ = run_json(capsys, "roots", "roots", "--n", str(n),
                                    "--which", which, "--json")
            assert code == 0 and obj["match"] is True
            assert obj["in_degree_six"] == obj["expected_in_degree_six"] == (
                _ROOT_EXPECTED[which](n))


def test_code_and_equiv_refuse_n12(capsys):
    for argv in (("code", "--n", "12", "--alpha", "random"),
                 ("equiv", "--n", "12", "--alpha", "random", "--map", "random")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "n <= 11" in err


def test_census_and_roots_refuse_n17_before_building_a_tower(capsys, monkeypatch):
    # n = 17 is above the tower's construction cap, so a tower build would exit 2
    def no_tower(*args, **kwargs):
        raise AssertionError("tower built before the n check")

    monkeypatch.setattr("goppa_orbits.cli.make_tower", no_tower)
    for argv, limit in ((("census", "--n", "17"), "n <= 7"),
                        (("census", "--n", "16"), "n <= 7"),
                        (("roots", "--n", "17", "--which", "eq_deg8"), "n <= 16")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"infeasible: n={argv[2]}:")
        assert limit in err


def test_code_and_equiv_at_largest_accepted_n(capsys):
    # sha256 of the full reports; neither report carries a timing field
    code, out, _ = run(capsys, "code", "--n", "11", "--alpha", "random", "--seed", "0",
                       "--extended", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "827af3840d4f81606c845ed9b52ceb387421479f741418eaf9d2952913ff3103")
    code, out, _ = run(capsys, "equiv", "--n", "11", "--alpha", "random", "--map", "random",
                       "--seed", "1", "--json")
    assert code == 0 and json.loads(out)["verified"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2bbded041bc47389ae9d1b2d1cf8f0a141565a389671beb21f443130d562e81")


def test_roots_eq41_n7(capsys):
    code, obj, _ = run_json(capsys, "roots", "roots", "--n", "7", "--which",
                            "eq_41", "--json")
    assert code == 0
    assert obj["in_degree_six"] == obj["expected_in_degree_six"] == 16254
    assert obj["match"] is True
    assert (obj["total"], obj["in_subfield_2n"],
            obj["in_subfield_3n"]) == (16385, 2, 129)


def test_roots_eq41_refuses_n9(capsys):
    code, out, err = run(capsys, "roots", "--n", "9", "--which", "eq_41")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "n <= 8" in err and "262145" in err


def test_roots_at_largest_accepted_n(capsys):
    # n = 16 is not prime, so there is no closed form to match against; its
    # 2^48 roots split as in any n: 2^n in GF(2^(2n)), none in GF(2^(3n))
    code, obj, _ = run_json(capsys, "roots", "roots", "--n", "16", "--which",
                            "eq_3n", "--json")
    assert code == 0
    assert (obj["total"], obj["in_degree_six"], obj["in_subfield_2n"],
            obj["in_subfield_3n"]) == (1 << 48, (1 << 48) - (1 << 16), 1 << 16, 0)
    assert obj["expected_in_degree_six"] is None and obj["match"] is None


def test_minimal_polynomial_calls(capsys, monkeypatch):
    calls = []
    inner = Tower.minimal_polynomial

    def counted(self, alpha):
        calls.append(alpha)
        return inner(self, alpha)

    monkeypatch.setattr(Tower, "minimal_polynomial", counted)
    code, _, _ = run(capsys, "code", "--n", "5", "--alpha", "random", "--seed", "0")
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, _, _ = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                     "--map", "random", "--seed", "0")
    assert code == 0 and calls == []
