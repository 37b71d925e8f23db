import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goppa_orbits import cli, schema
from goppa_orbits.cli import _ROOT_EXPECTED, main
from goppa_orbits.counting import MAX_CLOSED_FORM_N, burnside_numerator, is_prime
from goppa_orbits.gf2tower import Tower

SRC = Path(__file__).resolve().parent.parent / "src"
NEXT_PRIME = next(k for k in range(MAX_CLOSED_FORM_N + 1, 2 * MAX_CLOSED_FORM_N) if is_prime(k))


def closed_form_argvs(n):
    """Every command that prints closed forms up to n, in text and JSON mode."""
    return [[*argv, *mode] for argv in (("bound", "--n", str(n)),
                                        ("fixed", "--n", str(n), "--d", "1"),
                                        ("fixed", "--n", "5", "--table", "--nmax", str(n)))
            for mode in ((), ("--json",))]


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


def test_closed_forms_run_at_the_cap(capsys):
    # the cap is the last prime whose numerator stays below 640 digits
    assert is_prime(MAX_CLOSED_FORM_N)
    assert len(str(burnside_numerator(MAX_CLOSED_FORM_N))) < 640
    assert len(str(burnside_numerator(NEXT_PRIME))) > 640
    for argv in closed_form_argvs(MAX_CLOSED_FORM_N):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == "", argv
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"upper bound (n <= {MAX_CLOSED_FORM_N})" in capsys.readouterr().out


def test_closed_forms_refuse_the_next_prime(capsys):
    for argv in closed_form_argvs(NEXT_PRIME):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert len(err.splitlines()) == 1 and f"{NEXT_PRIME}:" in err
        assert f"limited to n <= {MAX_CLOSED_FORM_N}" in err


PROBE = """
import contextlib, io, json, sys
from goppa_orbits.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        print(main(argv), file=sys.__stdout__)
"""


def test_closed_forms_under_the_least_int_digit_limit(tmp_path):
    argvs = closed_form_argvs(MAX_CLOSED_FORM_N) + closed_form_argvs(NEXT_PRIME)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0"] * 6 + ["3"] * 6, proc.stderr
    assert [line.startswith("infeasible: ") for line in proc.stderr.splitlines()] == [True] * 6


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
    assert "n=8" in err and "(2^40 - 1)/(2^8 - 1) classes" in err and "n <= 7" in err


def test_refusals_at_huge_n_are_one_short_line(capsys):
    # 2^(2n) at n = 7000 and the class count at n = 5000 have more digits than
    # Python prints by default; the refusals word them as 2^k expressions
    for argv, words in ((("census", "--n", "5000"), "(2^25000 - 1)/(2^5000 - 1) classes"),
                        (("code", "--n", "15000", "--alpha", "random"), "length 2^15000 + 1"),
                        (("roots", "--n", "7000", "--which", "eq_41"), "degree-(2^14000 + 1)")):
        for mode in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *mode)
            assert code == 3 and out == "", argv
            assert len(err.splitlines()) == 1 and len(err) < 200, err[:200]
            assert err.startswith(f"infeasible: n={argv[2]}:") and words in err


def test_sweep_refusal_at_n_1e9_builds_no_big_integer():
    probe = ("from goppa_orbits import counting\n"
             "try:\n    counting._sweep_cost_check(10**9)\n"
             "except counting.InfeasibleError as exc:\n    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=5)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == ("n=1000000000: the census and fixed-point oracle sweep the "
                           "(2^5000000000 - 1)/(2^1000000000 - 1) classes of "
                           "P^4(GF(2^1000000000)); they are limited to n <= 7\n")


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


BAD_HEX = ("+3f", "0x3f", "0X3f", "3_f", " 3f", "3f\n", "", "\u0663f")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_hex_input_takes_hex_digits_only(capsys, mode):
    """An alpha or map entry with a sign, prefix, underscore, space or
    non-ASCII digit exits 2 with one line, where `int(text, 16)` took it."""
    for bad in BAD_HEX:
        for argv in (("code", "--n", "2", "--alpha", bad),
                     ("equiv", "--n", "5", "--alpha", "random",
                      "--map", f"{bad},0,0,1;0")):
            code, out, err = run(capsys, *argv, *mode)
            assert (code, out) == (2, ""), argv
            assert len(err.splitlines()) == 1 and "Traceback" not in err, argv
    code, _, _ = run(capsys, "code", "--n", "2", "--alpha", "3F", *mode)
    assert code == 0


BAD_POWER = ("+5", " 5", "5 ", "5_0", "\u0665", "0x5", "--5", "-")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_map_power_takes_ascii_digits_only(capsys, mode):
    """The Frobenius power of --map is an optionally negative run of ASCII
    digits: `int()` took a sign, spaces, underscores and non-ASCII digits."""
    for bad in BAD_POWER:
        code, out, err = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                             "--map", f"1,0,0,1;{bad}", *mode)
        assert (code, out) == (2, ""), bad
        assert len(err.splitlines()) == 1 and "Traceback" not in err, bad
    for good in ("5", "-1", "0"):
        code, _, _ = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                         "--map", f"1,0,0,1;{good}", *mode)
        assert code == 0, good


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
    assert "n <= 8" in err and "degree-(2^18 + 1)" in err


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
    # code: the parity and the report share one g
    code, _, _ = run(capsys, "code", "--n", "5", "--alpha", "random", "--seed", "0")
    assert code == 0 and len(calls) == 1
    calls.clear()
    # equiv: one g per extended code, alpha's and beta's
    code, _, _ = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                     "--map", "random", "--seed", "0")
    assert code == 0 and len(calls) == 2 and calls[0] != calls[1]


def test_parity_makes_no_big_field_inversions(capsys, monkeypatch):
    calls = []
    inner = Tower.inv

    def counted(self, x):
        calls.append(x)
        return inner(self, x)

    monkeypatch.setattr(Tower, "inv", counted)
    code, _, _ = run(capsys, "code", "--n", "7", "--alpha", "random", "--seed", "0",
                     "--extended")
    assert code == 0 and calls == []
    # the map's normalisation and beta = m(alpha); the codes make none
    code, _, _ = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                     "--map", "random", "--seed", "0")
    assert code == 0 and len(calls) <= 2


# --------------------------------------------------- the process-wide parser


@pytest.fixture
def fresh_parser(monkeypatch):
    """Start from no parser, counting the builds; the old parser comes back after."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    return builds


def test_parser_is_built_once_per_process(capsys, fresh_parser):
    assert run(capsys, "bound", "--n", "5")[0] == 0
    parser = cli._PARSER
    assert run(capsys, "fixed", "--n", "5", "--table", "--nmax", "7", "--json")[0] == 0
    with pytest.raises(SystemExit):
        main(["roots", "--n", "5"])
    assert run(capsys, "roots", "--n", "5", "--which", "eq_deg8")[0] == 0
    assert fresh_parser == [1] and cli._PARSER is parser


def test_options_of_one_call_do_not_reach_the_next(capsys, monkeypatch, fresh_parser):
    code, obj, _ = run_json(capsys, "fixed_table", "fixed", "--n", "5", "--table",
                            "--nmax", "7", "--json")
    assert code == 0 and obj["n_values"] == [5, 7]
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "5", "--d", "6", "--json")
    assert code == 0 and (obj["d"], obj["oracle"], obj["closed_form"]) == (6, 9, 9)

    seeds = []
    resolve = cli._resolve_alpha
    monkeypatch.setattr(cli, "_resolve_alpha",
                        lambda ctx, text, seed: seeds.append(seed) or resolve(ctx, text, seed))
    code, first, _ = run_json(capsys, "code", "code", "--n", "3", "--alpha", "random",
                              "--seed", "3", "--extended", "--json")
    assert code == 0 and first["extended"] is True
    code, second, _ = run_json(capsys, "code", "code", "--n", "3", "--alpha", "random",
                               "--json")
    assert code == 0 and second["extended"] is False and seeds == [3, None]
    assert fresh_parser == [1]


def test_usage_error_leaves_the_shared_parser_working(capsys, fresh_parser):
    for argv in (["code", "--n", "5"], ["roots", "--n", "5", "--which", "eq_99"],
                 ["bound", "--n", "five"], ["nosuchcommand"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: goppa-orbits")
    code, obj, _ = run_json(capsys, "bound", "bound", "--n", "5", "--json")
    assert code == 0 and obj["bound"] == 1131
    assert fresh_parser == [1]
