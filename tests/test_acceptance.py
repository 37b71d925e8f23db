"""Acceptance suite: every headline claim at its exact expected value.

Each test prints one PASS line when its criterion holds; any failure is a
plain assert. Every test stands alone: a cold n=5 census takes seconds, so
the fixed-point and class-equation criteria do not rely on criterion 2
having filled the sweep cache.
"""

import random
import time

from conftest import (
    alternant_parity,
    class_equation_oracle,
    eval_poly,
    fixed_orbit_representatives,
    multipliers,
    paper_fixed_points,
    stacked_columns,
    transform_polynomial,
)
from goppa_orbits import counting
from goppa_orbits.codes import check_extended_equivalence, subfield_subcode
from goppa_orbits.counting import (
    burnside_bound,
    burnside_decomposition,
    burnside_numerator,
    fixed_point_oracle,
    global_orbit_census,
    root_count_oracle,
)
from goppa_orbits.gf2tower import _apply_cols, solve_affine_linearized
from goppa_orbits.mobius import apply_map, infinity, random_degree_six, random_map

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]

S_SIZE_N5 = 1_073_708_064
PGL_ORBIT_SIZE_N5 = 32_736


def _pass(k: int, text: str) -> None:
    print(f"\nACCEPTANCE {k}: {text}: PASS")


def test_criterion_1_bound_reproduction():
    start = time.perf_counter()
    assert burnside_bound(5) == 1131
    assert burnside_bound(7) == 50333
    for n in PRIMES_TO_61:
        rows = burnside_decomposition(n)
        phi_sum = sum(r["term"] for r in rows)
        numerator = burnside_numerator(n)
        assert phi_sum == numerator
        assert numerator % (6 * n) == 0
        assert {r["order"]: r["fixed_points"] for r in rows} == paper_fixed_points(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"bounds 1131/50333 and exact divisor sums for primes 5..61 "
             f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_full_census_n5(tower5):
    census1 = global_orbit_census(tower5)
    assert census1.orbit_count == 1131
    assert census1.elements_visited == S_SIZE_N5
    assert sum(size * count for size, count in census1.orbit_sizes) == S_SIZE_N5
    assert all(size % PGL_ORBIT_SIZE_N5 == 0 for size, _ in census1.orbit_sizes)
    assert census1.elapsed_ms <= 60_000

    census2 = global_orbit_census(tower5)
    assert census2 is not census1
    assert census2.records == census1.records
    assert census2.orbit_sizes == census1.orbit_sizes
    assert census2.orbit_count == census1.orbit_count
    assert census2.elapsed_ms <= 60_000

    assert census1.orbit_count == burnside_bound(5)
    _pass(2, f"census finds 1131 orbits covering {S_SIZE_N5} elements, "
             f"bit-identical over two fresh runs "
             f"({census1.elapsed_ms / 1e3:.1f}s / {census2.elapsed_ms / 1e3:.1f}s)")


def test_criterion_3_fixed_point_table_n5(tower5):
    expected = {1: 0, 2: 0, 3: 3, 5: 0, 6: 9, 10: 30, 15: 1023, 30: 32799}
    got = {d: fixed_point_oracle(5, d) for d in expected}
    assert got == expected
    closed = {d: counting.fixed_points_for_power(5, d) for d in expected}
    assert closed == expected
    _pass(3, f"oracle sweep equals closed forms on every divisor of 30: {got}")


def test_criterion_4_root_count_oracles_n5(tower5):
    eq3n = root_count_oracle(tower5, "eq_3n")
    assert eq3n.total == 1 << 15
    assert eq3n.in_degree_six == 32_736

    eq41 = root_count_oracle(tower5, "eq_41")
    assert eq41.in_degree_six == 990
    assert eq41.in_subfield_2n == 2
    assert eq41.in_subfield_3n == 33
    assert eq41.total == (1 << 10) + 1

    f64 = root_count_oracle(tower5, "fixed_field_64")
    assert f64.in_degree_six == 54

    deg8 = root_count_oracle(tower5, "eq_deg8")
    assert deg8.in_degree_six == 6

    _pass(4, "root counts 32768/32736, 990/2/33, 54 and 6 all exact")


def test_criterion_5_equivalence_suite_n5(tower5):
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = 0
    for _ in range(100):
        alpha = random_degree_six(tower5, rng)
        m = random_map(tower5, rng)
        report = check_extended_equivalence(tower5, alpha, m)
        if not report.verified or report.weights_alpha != report.weights_beta:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0
    _pass(5, f"100 random extended-code equivalences verified ({elapsed:.1f}s)")


def test_criterion_6_transform_suite_n5(tower5):
    rng = random.Random(4099)
    inf = infinity(tower5)
    support = list(tower5.subfield) + [inf]
    for _ in range(50):
        alpha = random_degree_six(tower5, rng)
        g = tower5.minimal_polynomial(alpha)
        m = random_map(tower5, rng)
        h = transform_polynomial(tower5, g, m)
        beta = apply_map(tower5, m, alpha)
        assert eval_poly(tower5, h, beta) == 0

        left = subfield_subcode(stacked_columns(
            tower5, alternant_parity(tower5, multipliers(tower5, g, support), support, 7)))
        moved = [apply_map(tower5, m, p) for p in support]
        right = subfield_subcode(stacked_columns(
            tower5, alternant_parity(tower5, multipliers(tower5, h, moved), moved, 7)))
        assert left == right  # indexwise, before any permutation
    _pass(6, "50 transformed-polynomial code identities hold indexwise")


def test_criterion_7_class_equations_n5(tower5):
    for d, order in ((3, 10), (6, 5), (10, 3), (15, 2)):
        reps = fixed_orbit_representatives(tower5, d, limit=3)
        assert reps, f"no orbits fixed by power {d}"
        for rep in reps:
            parts = class_equation_oracle(tower5, rep, d)
            assert sum(parts) == 33
            assert all(order % p == 0 for p in parts)
            if d == 10:
                assert set(parts) == {3}  # eleven 3-cycles
            if d == 15:
                assert parts.count(1) >= 1
            if d == 3:
                assert parts.count(1) == 1
            if d == 6:
                assert parts.count(1) == 3
    _pass(7, "class-equation partitions verified for powers 3, 6, 10, 15")


def test_criterion_8_algebra_oracles(tower5, tower2):
    from conftest import coset_array, schoolbook_mul

    rng = random.Random(88)
    for _ in range(1000):
        x, y = rng.getrandbits(30), rng.getrandbits(30)
        assert tower5.mul(x, y) == schoolbook_mul(tower5, x, y)

    for trial in range(6):
        cols = tuple(rng.getrandbits(12) for _ in range(12))
        offset = rng.getrandbits(12)
        b = rng.getrandbits(12)
        got = coset_array(solve_affine_linearized(cols, b ^ offset)).tolist()
        brute = [x for x in range(1 << 12) if _apply_cols(cols, x) ^ offset == b]
        assert got == brute
    _pass(8, "field multiplication and linearized solving match brute force")
