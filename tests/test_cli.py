import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (divisors, load_bench_run, orbit_counts_by_moebius, paper_root_counts,
                      records_digest)
from goppa_orbits import cli, codes, counting, schema
from goppa_orbits.cli import main
from goppa_orbits.counting import (
    MAX_CLOSED_FORM_N,
    burnside_numerator,
    is_prime,
)
from goppa_orbits.gf2tower import Tower, make_tower

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
    for n in ("4", "3", "1", "-5"):  # counting's refusal of the closed forms, one line
        code, out, err = run(capsys, "bound", "--n", n)
        assert (code, out) == (2, ""), n
        assert err == "error: closed forms require a prime n greater than 3\n", n


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
    assert (obj["bound"], obj["match"]) == (8, True)
    assert obj["elements_visited"] == 4020


def test_census_exits_1_when_its_count_misses_the_closed_form(capsys, monkeypatch):
    """L(6n) raised by 6n raises the closed-form count by one."""
    fixed = counting.fixed_points_for_power
    monkeypatch.setattr(counting, "fixed_points_for_power",
                        lambda n, d: fixed(n, d) + 6 * n * (d == 6 * n))
    code, out, err = run(capsys, "census", "--n", "2")
    assert (code, err) == (1, "") and out.endswith("\nbound = 9: MISMATCH\n")
    code, obj, _ = run_json(capsys, "census", "census", "--n", "2", "--json")
    assert (code, obj["orbit_count"], obj["bound"], obj["match"]) == (1, 8, 9, False)


def test_census_text_mode_prints_the_elapsed_milliseconds(capsys):
    """A scan at n <= 5 takes a few ms, which seconds to one decimal read as 0.0."""
    code, out, _ = run(capsys, "census", "--n", "3")
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("workers = "))
    ms = float(line.removeprefix("workers = 1, elapsed ").removesuffix(" ms"))
    assert ms > 0
    assert counting._sweep(3).elapsed_ms == pytest.approx(ms, abs=0.05)


def test_census_worker_independence(capsys):
    _, one, _ = run_json(capsys, "census", "census", "--n", "3", "--json",
                         "--workers", "1")
    _, eight, _ = run_json(capsys, "census", "census", "--n", "3", "--json",
                           "--workers", "8")
    one.pop("elapsed_ms"), eight.pop("elapsed_ms")
    one.pop("workers"), eight.pop("workers")
    assert one == eight


def test_census_exits_1_on_a_singular_class_basis(capsys, monkeypatch):
    """An embedding that sends every gamma_k to 1 leaves gamma_k * theta^j
    dependent: the census's table build raises ConsistencyError, which the
    CLI reports as a falsified claim, with exit 1 and one stderr line."""
    monkeypatch.setattr(Tower, "embed_base", lambda self, a: 1 if a else 0)
    code, out, err = run(capsys, "census", "--n", "3", "--json")
    assert (code, out) == (1, "")
    assert err == "falsified internal claim: gamma_k * theta^j is not a basis of the big field\n"


def test_census_refuses_n8(capsys):
    code, _, err = run(capsys, "census", "--n", "8")
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "n=8" in err and "(2^40 - 1)/(2^8 - 1) classes" in err and "n <= 7" in err


def test_refusals_at_huge_n_are_one_short_line(capsys):
    # 2^(6n) at n = 7000 and the class count at n = 5000 have more digits than
    # Python prints by default; the refusals word them as 2^k expressions
    for argv, words in ((("census", "--n", "5000"), "(2^25000 - 1)/(2^5000 - 1) classes"),
                        (("code", "--n", "15000", "--alpha", "random"), "length 2^15000 + 1"),
                        (("roots", "--n", "7000", "--which", "eq_41"), "tower GF(2^42000)")):
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
    assert proc.stdout == ("n=1000000000: the census and fixed-point oracle scan the "
                           "(2^5000000000 - 1)/(2^1000000000 - 1) classes of "
                           "P^4(GF(2^1000000000)) by rank until their orbits hold "
                           "every class; they are limited to n <= 7\n")


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


@pytest.mark.slow
def test_fixed_runs_its_oracle_at_the_largest_sweep_n(capsys):
    """At n = MAX_SWEEP_N = 7 the census oracle runs and meets the closed
    form; a gate that skipped it would report `oracle: null` and still exit 0."""
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "7", "--d", "14", "--json")
    assert code == 0 and obj["match"] is True
    assert obj["oracle"] == obj["closed_form"] == 126


def whole_argv(*argv, marks=()):
    """A case named by every word of its argv, where the first four would repeat."""
    return pytest.param(argv, id="-".join(a.lstrip("-") for a in argv), marks=marks)


@pytest.mark.parametrize("argv", [
    ("bound", "--n", "5"),
    ("census", "--n", "2"),
    ("fixed", "--n", "2", "--d", "6"),
    ("fixed", "--n", "5", "--table", "--nmax", "13"),
    ("roots", "--n", "5", "--which", "eq_deg8"),
    ("code", "--n", "5", "--alpha", "random", "--seed", "1", "--extended"),
    ("equiv", "--n", "5", "--alpha", "random", "--map", "random", "--seed", "3"),
    # the census on the benchmark's dense big modulus and on a base modulus
    # that moves the class basis; exit 1 would be a count off the closed form
    whole_argv("census", "--n", "5", "--modulus-big", "30,29,0"),
    whole_argv("census", "--n", "5", "--modulus-base", "5,3,0"),
    whole_argv("census", "--n", "7", "--modulus-big", "42,35,0", marks=pytest.mark.slow),
    whole_argv("fixed", "--n", "7", "--d", "14", marks=pytest.mark.slow),
    # eq_41 on the largest composite tower, and the linear equations on the
    # largest, where exit 1 would be a count off the paper's closed form
    whole_argv("roots", "--n", "16", "--which", "eq_41"),
    *(whole_argv("roots", "--n", "127", "--which", which)
      for which in ("eq_3n", "eq_2n_affine", "eq_deg8", "fixed_field_64")),
    # codes at n = 2 (the zero code), 6 and 7, and at the largest n
    whole_argv("code", "--n", "2", "--alpha", "random", "--seed", "1", "--extended"),
    whole_argv("code", "--n", "6", "--alpha", "random", "--seed", "1", "--extended"),
    whole_argv("code", "--n", "7", "--alpha", "random", "--seed", "1"),
    whole_argv("code", "--n", "11", "--alpha", "random", "--seed", "1"),
    whole_argv("code", "--n", "11", "--alpha", "random", "--extended", "--seed", "1"),
    # composite n = 4, n = 7 past the weight budget, and a map whose
    # Frobenius power equals n
    whole_argv("equiv", "--n", "4", "--alpha", "random", "--map", "random", "--seed", "1"),
    whole_argv("equiv", "--n", "7", "--alpha", "random", "--map", "random", "--seed", "7"),
    whole_argv("equiv", "--n", "5", "--alpha", "random", "--map", "1,1,1,0;5"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:4]))
def test_json_report_is_one_compact_line(capsys, argv):
    """Every report is the compact encoding of its object, so the C encoder
    writes it, and exits 0: a count that misses its closed form exits 1."""
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_closed_pipe_ends_with_one_line(tmp_path):
    """The reader stops after one byte: exit 4 and one stderr line, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen(
            [sys.executable, "-m", "goppa_orbits.cli", "code", "--n", "11", "--alpha",
             "random", "--seed", "1", "--extended", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path) as proc:
        first = proc.stdout.read(1)
        proc.stdout.close()  # the report is about 1 MiB, more than the pipe holds
        err = proc.stderr.read().decode()
    assert first == b"{" and proc.returncode == 4
    assert err == "error: the output pipe was closed before the report was written\n"


@pytest.mark.slow
def test_census_n6_matches_the_closed_form(capsys):
    """n = 6 prints a MATCH against the closed form's 7405; its records are
    pinned by a sha256 recorded from the visited-bit sweep the cross-ratio
    scan replaced, and its histogram is N(t) by Moebius inversion."""
    code, out, _ = run(capsys, "census", "--n", "6")
    assert code == 0
    assert out.endswith("\nbound = 7405: MATCH\n")
    census = counting._sweep(6)  # the census just cached
    assert records_digest(make_tower(6), census.records) == (
        "44ff532a395f3bfd3e90263d2525fd089af647b2e7c1629b159717b0bc3b9f14")
    assert len(census.records) == 7405
    assert Counter(t for _, t in census.records) == {36: 7168, 18: 224, 12: 5, 9: 7, 4: 1}
    assert census.t_counts == orbit_counts_by_moebius(6)


def test_fixed_single_power(capsys):
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "2", "--d", "6",
                            "--json")
    assert code == 0
    assert obj["oracle"] == 15
    assert obj["closed_form"] is None
    assert obj["order"] == 2


@pytest.mark.parametrize("d, order", [(0, 1), (-6, 5), (30, 1), (13, 30)])
def test_fixed_order_is_6n_over_its_gcd_with_d(capsys, d, order):
    """The order of sigma^d is 6n / gcd(6n, d) for every int d, 0 and
    negative d included: gcd(6n, 0) = 6n. n = 5, so 6n = 30."""
    code, obj, _ = run_json(capsys, "fixed", "fixed", "--n", "5", "--d", str(d), "--json")
    assert code == 0 and (obj["d"], obj["order"]) == (d, order)


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


def test_fixed_table_below_the_least_prime(capsys):
    """--nmax below 5 leaves no prime n > 3: the text report says so in one
    line, and the JSON report holds empty lists."""
    code, out, err = run(capsys, "fixed", "--n", "5", "--table", "--nmax", "4")
    assert (code, out, err) == (0, "no prime n in 5..4: the table is empty\n", "")
    code, obj, _ = run_json(capsys, "fixed_table", "fixed", "--n", "5",
                            "--table", "--nmax", "4", "--json")
    assert code == 0 and obj == {"n_values": [], "rows": []}


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


BAD_EXPONENTS = ("3_0,1,0", "+30,1,0", " 30,1,0", "30,1,0 ", "30,1,0\n", "\u06630,1,0",
                 "30,1,1,0", "30,1,01,0", "30,,1,0", "30,1,0,", "", "0x1e,1,0", "30;1;0")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_modulus_takes_distinct_ascii_exponents_only(capsys, monkeypatch, mode):
    """A modulus exponent with a sign, underscore, space or non-ASCII digit,
    or one given twice (over GF(2) the two terms cancel), exits 2 with one
    line, where `int()` took it and the repeat was OR-ed in."""
    for bad in BAD_EXPONENTS:
        for flag in ("--modulus-base", "--modulus-big"):
            code, out, err = run(capsys, "roots", "--n", "5", "--which", "eq_3n",
                                 flag, bad, *mode)
            assert (code, out) == (2, ""), (flag, bad)
            assert len(err.splitlines()) == 1 and "Traceback" not in err, (flag, bad)
    load_bench_run(monkeypatch)
    import workloads
    for n, big in [(4, m) for m in workloads.N4_BIG_MODULI] + [
            (5, m) for m in workloads.N5_BIG_MODULI]:
        code, _, _ = run(capsys, "roots", "--n", str(n), "--which", "eq_3n",
                         "--modulus-big", big, *mode)
        assert code == 0, big


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_modulus_rejected_by_the_gcd_test_alone_exit_2(capsys, mode):
    """(x^6 + x + 1)(x^6 + x^3 + 1) passes x^(2^12) = x at n = 2; the gcd
    test on the tower's chain rejects it with the one documented line."""
    code, out, err = run(capsys, "roots", "--n", "2", "--which", "eq_3n",
                         "--modulus-big", "12,9,7,4,3,1,0", *mode)
    assert (code, out) == (2, "")
    assert err == "error: modulus_big must be irreducible of degree 6n\n"


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_reducible_modulus_base_exit_2(capsys, mode):
    """x^5 + x^4 + 1 = (x^2 + x + 1)(x^3 + x + 1) and x^4 + x^3 + x^2 + 1,
    which has the root 1, are refused with the one documented line while
    the tower is built."""
    for argv in (("roots", "--n", "5", "--which", "eq_3n", "--modulus-base", "5,4,0"),
                 ("fixed", "--n", "4", "--d", "6", "--modulus-base", "4,3,2,0")):
        code, out, err = run(capsys, *argv, *mode)
        assert (code, out) == (2, ""), argv
        assert err == "error: modulus_base must be irreducible of degree n\n", argv


def no_tower(*args, **kwargs):
    raise AssertionError("built a tower")


def without_elapsed(report):
    return {k: v for k, v in json.loads(report).items() if k != "elapsed_ms"}


UNREAD_MODULI = ("error: fixed reads --modulus-base and --modulus-big only for its oracle, "
                 "which runs at n <= 7 without --table\n")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_fixed_refuses_a_modulus_it_would_not_read(capsys, monkeypatch, mode):
    """`fixed` builds a tower only for its oracle, at n <= 7 without
    `--table`. On every other path a modulus flag, well-formed or not, exits 2
    with one line and no report, where it went unread with exit 0; on the
    oracle's path it is read and checked as before."""
    monkeypatch.setattr(cli, "make_tower", no_tower)
    for argv in (("--n", "11", "--d", "3", "--modulus-big", "zz"),
                 ("--n", "11", "--d", "3", "--modulus-base", "11,0"),  # x^11 + 1, reducible
                 ("--n", "11", "--d", "3", "--modulus-base", "11,2,0"),
                 ("--n", "8", "--d", "6", "--modulus-big", "48,5,3,2,0"),
                 ("--table", "--nmax", "7", "--modulus-base", "9,9"),
                 ("--n", "5", "--table", "--nmax", "13", "--modulus-big", "30,1,0")):
        assert run(capsys, "fixed", *argv, *mode) == (2, "", UNREAD_MODULI), argv
    monkeypatch.undo()
    code, out, err = run(capsys, "fixed", "--n", "5", "--d", "3", "--modulus-big", "zz", *mode)
    assert (code, out) == (2, "") and err.startswith("error: bad modulus exponent list 'zz'")
    assert run(capsys, "fixed", "--n", "4", "--d", "12", "--modulus-big", "24,16,3,1,0",
               *mode)[0] == 0


def test_fixed_reads_a_cached_census_and_builds_no_tower(capsys, monkeypatch):
    """After `census --n 4` on the default modulus and on each of the
    benchmark's four big moduli, `fixed --n 4 --d d` for every d | 24 reads
    the cached census and builds no tower; its report, timing aside, is the
    report of the same request on an empty cache. The default modulus
    spelled out hits the default's entry."""
    load_bench_run(monkeypatch)
    import workloads
    for big in (None, *workloads.N4_BIG_MODULI):
        flags = () if big is None else ("--modulus-big", big)
        cold = {}
        for d in divisors(24):
            counting._SWEEPS.clear()
            code, out, err = run(capsys, "fixed", "--n", "4", "--d", str(d), "--json", *flags)
            assert (code, err) == (0, ""), (big, d)
            cold[d] = without_elapsed(out)
        assert run(capsys, "census", "--n", "4", "--json", *flags)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(counting, "make_tower", no_tower)
            patch.setattr(cli, "make_tower", no_tower)
            for d in divisors(24):
                code, out, err = run(capsys, "fixed", "--n", "4", "--d", str(d), "--json",
                                     *flags)
                assert (code, err, without_elapsed(out)) == (0, "", cold[d]), (big, d)
    counting._SWEEPS.clear()
    assert run(capsys, "census", "--n", "4")[0] == 0
    monkeypatch.setattr(counting, "make_tower", no_tower)
    code, out, _ = run(capsys, "fixed", "--n", "4", "--d", "24", "--json",
                       "--modulus-big", "24,4,3,1,0", "--modulus-base", "4,1,0")
    assert code == 0 and json.loads(out)["oracle"] == 4111


def test_fixed_refusals_do_not_depend_on_the_census_cache(capsys):
    """A reducible modulus, an n no tower is built for and an n above the
    oracle's limit give the same exit code, output and message before and
    after the censuses they could be mistaken for are cached."""
    argvs = (("fixed", "--n", "4", "--d", "6", "--modulus-big", "24,1,0"),
             ("fixed", "--n", "4", "--d", "6", "--modulus-base", "4,3,2,0"),
             ("fixed", "--n", "1", "--d", "1"),
             ("fixed", "--n", "1", "--d", "1", "--modulus-big", "6,1,0"),
             ("fixed", "--n", "8", "--d", "6"),
             ("fixed", "--n", "8", "--d", "6", "--modulus-big", "48,5,3,2,0"))

    def results():
        return [run(capsys, *argv, *mode) for argv in argvs for mode in ((), ("--json",))]

    counting._SWEEPS.clear()
    cold = results()
    for n in (2, 4):
        assert run(capsys, "census", "--n", str(n))[0] == 0
    assert results() == cold
    assert [code for code, _, _ in cold[::2]] == [2, 2, 2, 2, 0, 2]
    assert cold[0][2] == "error: modulus_big must be irreducible of degree 6n\n"
    assert cold[4][2] == cold[6][2] == "error: n must be at least 2\n"


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_n_is_checked_before_a_modulus_is_parsed(capsys, monkeypatch, mode):
    """A modulus is checked against degrees n and 6n, so an n no tower is
    built for is refused first, with the tower's own line; an oversized
    exponent is still refused before any polynomial is built from it."""
    for argv in (("code", "--n", "-1", "--modulus-big", "24,16,3,1,0", "--alpha", "0"),
                 ("fixed", "--n", "0", "--d", "1", "--modulus-big", "1,0"),
                 ("roots", "--n", "1", "--which", "eq_3n", "--modulus-base", "5,2,0"),
                 ("census", "--n", "-3", "--modulus-big", "99999999999999999999")):
        assert run(capsys, *argv, *mode) == (2, "", "error: n must be at least 2\n"), argv
    monkeypatch.setattr(cli.gf2poly, "from_exponents", no_tower)
    code, out, err = run(capsys, "code", "--n", "5", "--alpha", "random",
                         "--modulus-big", "99999999999999999999", *mode)
    assert (code, out) == (2, "") and "0..30" in err and len(err.splitlines()) == 1


def test_bad_workers_exit_2(capsys):
    code, out, err = run(capsys, "census", "--n", "2", "--workers", "0")
    assert code == 2 and out == ""
    assert err == "error: workers must be positive\n"


def test_bad_workers_are_refused_before_a_tower_is_built(capsys, monkeypatch):
    """--workers is checked with the other flags, before `make_tower` runs."""
    built = []
    monkeypatch.setattr(cli, "make_tower", lambda *args, **kwargs: built.append(args))
    code, out, err = run(capsys, "census", "--n", "4", "--workers", "0")
    assert (code, out, built) == (2, "", [])
    assert err == "error: workers must be positive\n"


def test_roots_linear_equations_match_at_n11_and_n13(capsys):
    # above 6n = 63 bits: the counts are ranks, so no root is held in an int64
    for n in (11, 13):
        for which in ("eq_3n", "eq_2n_affine", "eq_deg8", "fixed_field_64"):
            code, obj, _ = run_json(capsys, "roots", "roots", "--n", str(n),
                                    "--which", which, "--json")
            assert code == 0 and obj["match"] is True
            assert obj["in_degree_six"] == obj["expected_in_degree_six"] == (
                paper_root_counts(n)[which])


def test_code_and_equiv_refuse_n12(capsys):
    for argv in (("code", "--n", "12", "--alpha", "random"),
                 ("equiv", "--n", "12", "--alpha", "random", "--map", "random")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "n <= 11" in err


def test_census_and_roots_refuse_n17_before_building_a_tower(capsys, monkeypatch):
    # both refuse before a tower is built: n = 16 and 17 are above the
    # census's cap, and n = 18 above the tower's, where a build would exit 2
    def no_tower(*args, **kwargs):
        raise AssertionError("tower built before the n check")

    monkeypatch.setattr("goppa_orbits.cli.make_tower", no_tower)
    for argv, limit in ((("census", "--n", "17"), "n <= 7"),
                        (("census", "--n", "16"), "n <= 7"),
                        (("roots", "--n", "18", "--which", "eq_deg8"), "n <= 16"),
                        (("roots", "--n", "18", "--which", "eq_3n"), "n <= 16")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"infeasible: n={argv[2]}:")
        assert limit in err


def test_code_and_equiv_at_largest_accepted_n(capsys):
    # sha256 of the full reports, indented as they were when the digests were
    # recorded; neither report carries a timing field
    def digest(out):
        text = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    code, out, _ = run(capsys, "code", "--n", "11", "--alpha", "random", "--seed", "0",
                       "--extended", "--json")
    assert code == 0
    assert digest(out) == (
        "827af3840d4f81606c845ed9b52ceb387421479f741418eaf9d2952913ff3103")
    code, out, _ = run(capsys, "equiv", "--n", "11", "--alpha", "random", "--map", "random",
                       "--seed", "1", "--json")
    assert code == 0 and json.loads(out)["verified"] is True
    assert digest(out) == (
        "d2bbded041bc47389ae9d1b2d1cf8f0a141565a389671beb21f443130d562e81")


def test_roots_eq41_n7(capsys):
    code, obj, _ = run_json(capsys, "roots", "roots", "--n", "7", "--which",
                            "eq_41", "--json")
    assert code == 0
    assert obj["in_degree_six"] == obj["expected_in_degree_six"] == 16254
    assert obj["match"] is True
    assert (obj["total"], obj["in_subfield_2n"],
            obj["in_subfield_3n"]) == (16385, 2, 129)


def test_roots_eq41_runs_to_the_tower_cap(capsys):
    # eq_41 is a rank like the linear equations, so it has no cap of its own:
    # it runs to the last prime with default moduli, and a composite n above
    # 16 or any n past 127 is refused before a tower is built
    for n in (13, 127):
        code, obj, _ = run_json(capsys, "roots", "roots", "--n", str(n), "--which",
                                "eq_41", "--json")
        assert code == 0 and obj["match"] is True
        assert obj["in_degree_six"] == obj["expected_in_degree_six"] == (
            paper_root_counts(n)["eq_41"])
    for n in (18, 131):
        code, out, err = run(capsys, "roots", "--n", str(n), "--which", "eq_41")
        assert code == 3 and out == ""
        assert err == (f"infeasible: n={n}: the root counts work in the tower GF(2^{6 * n}), "
                       "whose default moduli are tabled for every n <= 16 and for the "
                       "primes 17 <= n <= 127 only\n")


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


def test_only_the_code_report_derives_a_parity_basis(capsys, monkeypatch):
    """A code is its reduced generator: equiv compares generators and
    eliminates nothing more, and the code report derives the one parity
    basis it prints, by one reduction of its parity-check matrix's rows."""
    calls = {"nullspace": 0, "rref": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(codes, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(codes, name, counted)
    code, _, _ = run(capsys, "equiv", "--n", "5", "--alpha", "random",
                     "--map", "random", "--seed", "0")
    assert code == 0 and calls == {"nullspace": 0, "rref": 0}
    code, _, _ = run(capsys, "code", "--n", "5", "--alpha", "random", "--seed", "0",
                     "--extended")
    assert code == 0 and calls == {"nullspace": 0, "rref": 1}


# --------------------------------------------------- the process-wide parser


@pytest.fixture
def fresh_parser(monkeypatch):
    """Start from no parser, counting the builds; the parser built here is
    dropped after, as its commands may be the test's stand-ins."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parsers.cache_clear()
    yield builds
    cli._parsers.cache_clear()


def test_parser_is_built_once_per_process(capsys, fresh_parser):
    assert run(capsys, "bound", "--n", "5")[0] == 0
    parsers = cli._parsers()
    assert run(capsys, "fixed", "--n", "5", "--table", "--nmax", "7", "--json")[0] == 0
    with pytest.raises(SystemExit):
        main(["roots", "--n", "5"])
    assert run(capsys, "roots", "--n", "5", "--which", "eq_deg8")[0] == 0
    assert fresh_parser == [1] and cli._parsers() is parsers


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
                 ["bound", "--n", "five"], ["nosuchcommand"], [],
                 ["census", "--n", "4", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: goppa-orbits"), argv
        assert "Traceback" not in err
    code, obj, _ = run_json(capsys, "bound", "bound", "--n", "5", "--json")
    assert code == 0 and obj["bound"] == 1131
    assert fresh_parser == [1]


# ------------------------------------------- one parse, by the subcommand's parser

# the help texts as the top-level parser printed them before requests went
# straight to their subcommand's parser, at 80 columns; the roots line has
# since named its reach above n = 16, the primes only
TOP_HELP = """\
usage: goppa-orbits [-h] {bound,census,fixed,roots,code,equiv} ...

Extended binary sextic Goppa codes: orbit counts, bounds, and equivalence
checks over GF(2^(6n)).

positional arguments:
  {bound,census,fixed,roots,code,equiv}
    bound               closed-form orbit-count upper bound (n <= 701)
    census              full orbit census (n <= 7)
    fixed               fixed-orbit counts per Frobenius power (n <= 701;
                        oracle n <= 7)
    roots               root-count oracles for the named equations (n <= 16 or
                        a prime n <= 127)
    code                build the binary code of a degree-6 element (n <= 11)
    equiv               verify extended-code equivalence under a map (n <= 11)

options:
  -h, --help            show this help message and exit
"""
CENSUS_HELP = """\
usage: goppa-orbits census [-h] --n N [--json] [--modulus-base MODULUS_BASE]
                           [--modulus-big MODULUS_BIG] [--workers WORKERS]

options:
  -h, --help            show this help message and exit
  --n N                 base-field exponent
  --json                emit a JSON report
  --modulus-base MODULUS_BASE
                        override, exponent list like '5,2,0'
  --modulus-big MODULUS_BIG
                        override, exponent list like '30,1,0'
  --workers WORKERS     validated (>= 1) and echoed in the report; the census
                        runs in one thread
"""


def request_argvs(monkeypatch) -> list[list[str]]:
    """Every golden argv, in text and JSON mode, and one round of each
    benchmark workload plus its known-defect probe."""
    from test_golden import GOLDEN
    load_bench_run(monkeypatch)
    import workloads
    argvs = [[*argv, *mode] for argv in GOLDEN.values() for mode in ((), ("--json",))]
    for round_of in workloads.ROUNDS.values():
        argvs += [list(op.argv) for op in round_of(1, 0)[0]]
    argvs.append([*workloads.KNOWN_DEFECT, "--seed", "1", "--json"])
    return argvs


@pytest.fixture
def recorded(monkeypatch, fresh_parser):
    """Each command replaced by one that keeps its namespace and exits 0."""
    seen = []
    for name in ("bound", "census", "fixed", "roots", "code", "equiv"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(args) or 0)
    return seen


def test_dispatch_gives_the_top_level_parsers_namespace(monkeypatch, recorded):
    argvs = request_argvs(monkeypatch)
    shapes = {(argv[0], "--d" in argv, "--table" in argv, "--modulus-big" in argv)
              for argv in argvs}
    for command in ("census", "roots", "equiv"):
        assert {(command, False, False, big) for big in (False, True)} <= shapes
    assert {("fixed", True, False, True), ("fixed", True, False, False),
            ("fixed", False, True, False), ("code", False, False, False),
            ("bound", False, False, False)} <= shapes
    for argv in argvs:
        assert main(argv) == 0, argv
        full = vars(cli._parsers()[0].parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(recorded.pop()) == full, argv
    assert recorded == []


def test_a_request_is_parsed_once(capsys, monkeypatch):
    """A well-formed request is read off its subcommand's option table and
    never reaches argparse; any other is parsed once by argparse, with its
    subcommand's parser, never the top-level one."""
    calls = []
    inner = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (["bound", "--n", "5"], ["fixed", "--table", "--nmax", "7", "--json"],
                 ["fixed", "--n", "2", "--d", "3", "--json"], ["census", "--n", "2"],
                 ["roots", "--n", "5", "--which", "eq_deg8", "--modulus-big", "30,1,0"],
                 ["code", "--n", "3", "--alpha", "random", "--seed", "1", "--extended"],
                 ["equiv", "--n", "3", "--alpha", "random", "--map", "random"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert calls == [], argv
    calls.clear()
    assert run(capsys, "bound", "--n=5")[0] == 0
    assert calls == ["goppa-orbits bound"]
    calls.clear()
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "4", "--bogus"])
    assert exc.value.code == 2 and calls == ["goppa-orbits census"]


@pytest.mark.parametrize("argv, text", [(["--help"], TOP_HELP),
                                        (["census", "--help"], CENSUS_HELP)])
def test_help_texts_are_kept(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr() == (text, "")


def test_an_unknown_option_is_reported_by_its_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["census", "--n", "4", "--bogus"])
    err = capsys.readouterr().err
    assert err == (CENSUS_HELP.split("\n\n")[0] + "\n"
                   "goppa-orbits census: error: unrecognized arguments: --bogus\n")


def test_fixed_table_needs_no_n(capsys):
    code, without, err = run(capsys, "fixed", "--table", "--nmax", "7", "--json")
    assert (code, err) == (0, "")
    assert run(capsys, "fixed", "--n", "5", "--table", "--nmax", "7", "--json") == (0, without, "")
    for argv, flag in ((["fixed", "--d", "6"], "--n"), (["fixed", "--n", "5"], "--d"),
                       (["fixed", "--json"], "--n")):
        assert run(capsys, *argv) == (2, "", f"error: {flag} is required without --table\n")


# the values of each option that parse, then those that do not; n stays at
# most 5 where a census could run, or is one that every command refuses
_OPTION_VALUES = {
    "--n": (("-1", "0", "1", "2", "3", "4", "5", "12", "709", "5000"), ("x", "")),
    "--d": (("-7", "0", "1", "6", "13"), ("x",)),
    "--nmax": (("-1", "4", "13", "701", "709"), ("x",)),
    "--which": (counting.ROOT_EQUATIONS, ("eq_x",)),
    "--alpha": (("random", "0", "1f", "zz", ""), ()),
    "--map": (("random", "1,0,0,1;0", "1,1,1,0;5", "1,2", ""), ()),
    "--seed": (("0", "1", "-3"), ("x",)),
    "--workers": (("0", "1", "2"), ("x",)),
    "--modulus-base": (("5,2,0", "5,3,0", "3_0", "2,2", ""), ()),
    "--modulus-big": (("30,29,0", "24,16,3,1,0", "12,9,7,4,3,1,0", "99", ""), ()),
}
_MODULUS_FLAGS = ("--modulus-base", "--modulus-big")
# each command's required options, then its optional ones
_COMMAND_OPTIONS = {
    "bound": (("--n",), ("--json",)),
    "census": (("--n",), ("--json", "--workers", *_MODULUS_FLAGS)),
    "fixed": ((), ("--n", "--d", "--json", "--table", "--nmax", *_MODULUS_FLAGS)),
    "roots": (("--n", "--which"), ("--json", *_MODULUS_FLAGS)),
    "code": (("--n", "--alpha"), ("--seed", "--extended", "--json", *_MODULUS_FLAGS)),
    "equiv": (("--n", "--alpha", "--map"), ("--seed", "--json", *_MODULUS_FLAGS)),
}


@st.composite
def argvs(draw):
    """A command, or none, or an unknown one, then its required options and
    some of its optional ones in any order, each with a value that parses
    eleven times in twelve, and once in eight an option no command has, or
    -h."""
    command = draw(st.sampled_from([*_COMMAND_OPTIONS, "nosuchcommand", None]))
    argv = [] if command is None else [command]
    required, optional = _COMMAND_OPTIONS.get(command, ((), ()))
    chosen = [*required, *(flag for flag in optional if draw(st.booleans()))]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        if flag in _OPTION_VALUES:
            parses, fails = _OPTION_VALUES[flag]
            pool = fails if fails and not draw(st.integers(0, 11)) else parses
            argv.append(draw(st.sampled_from(pool)))
    if not draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(("--bogus", "-h"))))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_any_argv_ends_with_a_documented_exit_and_at_most_one_line(argv):
    """Any argv ends with exit 0, 1, 2 or 3 and at most one line on stderr,
    or with argparse's own usage exit (2, or 0 for help), never with a
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2) and (code == 2) == err.getvalue().startswith("usage: "), argv
        else:
            assert code in (0, 1, 2, 3), argv
            assert len(err.getvalue().splitlines()) == (code in (2, 3)), argv
    assert "Traceback" not in err.getvalue(), argv


# ------------------------------- a request read off its subcommand's table


@functools.cache
def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of a parser built for these tests alone."""
    return next(a.choices for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def parse_outcome(parse, words):
    """The namespace `parse(words)` returns, or the exit code, stdout and
    stderr of the `SystemExit` it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(words))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def assert_parsed_as_argparse_would(argv):
    if not argv or argv[0] not in subcommands():
        return
    command = subcommands()[argv[0]]
    expected = parse_outcome(command.parse_args, argv[1:])
    assert parse_outcome(lambda words: cli._parse_request(command, words), argv[1:]) == expected, argv


def assert_drawn_argvs_parse_as_argparse_would(monkeypatch, count):
    """`assert_parsed_as_argparse_would` over `count` argvs drawn by
    `argvs()`, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    settings(max_examples=count, deadline=None, derandomize=True, database=None)(
        given(argvs())(assert_parsed_as_argparse_would))()


def test_a_request_parses_as_argparse_parses_it(monkeypatch):
    """Whether read off the table or left to argparse, a request gives
    argparse's namespace, or its exit, help, usage and error text."""
    assert_drawn_argvs_parse_as_argparse_would(monkeypatch, 300)


@pytest.mark.slow
def test_a_request_parses_as_argparse_parses_it_over_3000_argvs(monkeypatch):
    assert_drawn_argvs_parse_as_argparse_would(monkeypatch, 3000)


@pytest.mark.parametrize("argv", [
    ["bound", "--n=5"],  # --opt=value
    ["census", "--n", "4", "--modulus-b", "30,1,0"],  # an ambiguous abbreviation
    ["census", "--n", "4", "--work", "2"],  # an abbreviation
    ["code", "--n", "5", "--alpha", "random", "--seed", "-3"],  # a negative number
    ["code", "--n", "5", "--alpha", "-x"],  # a value like an option
    ["equiv", "--n", "5", "--alpha", "random", "--map", "-1,0,0,1;0"],
    ["equiv", "--n", "5", "--alpha", "random", "--map", ""],
    ["fixed", "--n", "4", "--d", "3", "--n", "5", "--json", "--json"],  # repeated options
    ["bound", "--n", "5", "--"],
    ["bound", "--", "--n", "5"],
    ["roots", "--n", "5", "--which", "eq_99"],  # not a choice
    ["roots", "--which", "eq_3n"],  # no --n
    ["bound", "--n"],  # no value
    ["bound", "--n", "five"],  # not an int
    ["census", "-h"],
    ["census", "--n", "4", "--help"],
    ["fixed"],
], ids=" ".join)
def test_each_kind_of_argv_parses_as_argparse_parses_it(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert_parsed_as_argparse_would(argv)
