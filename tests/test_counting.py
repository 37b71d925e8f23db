import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    LINEAR_EQUATIONS,
    canonical_orbit_rep,
    class_equation_oracle,
    enumerated_root_counts,
    fixed_orbit_representatives,
    subfield_span_array,
)
from goppa_orbits import counting, gf2poly, make_tower, mobius
from goppa_orbits.counting import (
    InfeasibleError,
    burnside_bound,
    burnside_decomposition,
    burnside_numerator,
    closed_form_fixed_points,
    euler_phi,
    fixed_point_oracle,
    fixed_points_for_power,
    global_orbit_census,
    root_count_oracle,
)

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


# ------------------------------------------------------------- closed forms


def test_euler_phi_values():
    assert [euler_phi(k) for k in (1, 2, 3, 6, 10, 30, 42)] == [1, 1, 2, 2, 4, 8, 12]


def test_closed_forms_at_n5():
    assert closed_form_fixed_points(5, 1) == (1 << 15) + (1 << 5) - 1 == 32799
    assert closed_form_fixed_points(5, 2) == 1023
    assert closed_form_fixed_points(5, 3) == 30
    assert closed_form_fixed_points(5, 6) == 0
    assert closed_form_fixed_points(5, 5) == 9
    assert closed_form_fixed_points(5, 10) == 3
    assert closed_form_fixed_points(5, 15) == 0
    assert closed_form_fixed_points(5, 30) == 0


def test_closed_forms_reject_bad_inputs():
    for bad_n in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            closed_form_fixed_points(bad_n, 1)
    with pytest.raises(ValueError):
        closed_form_fixed_points(5, 4)


def test_power_reduction_by_gcd():
    for i in (1, 2, 4, 7, 12, 25, 29, 31):
        assert fixed_points_for_power(5, i) == fixed_points_for_power(
            5, math.gcd(i, 30))


def test_burnside_bound_values():
    assert burnside_bound(5) == 1131
    assert burnside_numerator(5) == 33930
    assert burnside_bound(7) == 50333
    assert burnside_numerator(7) == 2113986
    terms = {r["order"]: r["term"] for r in burnside_decomposition(5)}
    assert terms[1] == 32799
    assert terms[2] == 1023
    assert terms[3] == 60
    assert terms[5] == 36
    assert terms[10] == 12


def test_burnside_exact_division_through_61():
    for n in PRIMES_TO_61:
        assert burnside_numerator(n) % (6 * n) == 0
        assert burnside_bound(n) == burnside_numerator(n) // (6 * n)


def test_burnside_rejects_composite():
    with pytest.raises(ValueError):
        burnside_bound(9)


# ------------------------------------------------------------------ sweeps


def test_census_small_fields(tower2, tower3):
    c2 = global_orbit_census(tower2, workers=1)
    assert c2.elements_visited == (1 << 12) - (1 << 4) - (1 << 6) + (1 << 2)
    assert all(size % 60 == 0 for size, _ in c2.orbit_sizes)
    assert c2.pgl_orbit_count == (1 << 6) + (1 << 2) - 1 == 67
    c3 = global_orbit_census(tower3, workers=1)
    assert c3.elements_visited == (1 << 18) - (1 << 6) - (1 << 9) + (1 << 3)
    assert c3.pgl_orbit_count == (1 << 9) + (1 << 3) - 1
    assert all(size % ((1 << 9) - (1 << 3)) == 0 for size, _ in c3.orbit_sizes)


def test_census_deterministic_across_workers(tower2):
    c1 = global_orbit_census(tower2, workers=1)
    c4 = global_orbit_census(tower2, workers=4)
    assert c1.records == c4.records
    assert c1.orbit_sizes == c4.orbit_sizes
    assert c1.orbit_count == c4.orbit_count
    with pytest.raises(ValueError):
        global_orbit_census(tower2, workers=0)


def test_census_reps_are_least_class_ranks(tower2, tower3):
    for ctx in (tower2, tower3):
        index = counting._class_index(ctx)
        reps = [rep for rep, _, _ in global_orbit_census(ctx).records]
        ranks = index.classes(np.array(reps, dtype=np.int64))
        assert (np.diff(ranks) > 0).all()
        for rep, rank in zip(reps, ranks.tolist()):
            base = mobius.pgl_orbit_array(ctx, rep)
            orbit = np.concatenate(
                [ctx.frobenius_vec(base, i) for i in range(ctx.big_degree)])
            assert int(index.classes(orbit).min()) == rank
        least = {canonical_orbit_rep(ctx, rep, "PGammaL") for rep in reps}
        assert len(least) == len(reps)


def test_batched_sweep_drops_candidates(tower3):
    census = global_orbit_census(tower3)
    assert census.candidates > census.orbit_count == 33


def test_census_n5_records_digest(tower5):
    """The n = 5 records, pinned by a sha256 recorded from the one-orbit-per-round sweep."""
    records = json.dumps([list(r) for r in counting._run_sweep(tower5).records])
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "a92df7bb20bd60a90a9c53d290253902478551c7b1a83067ff269c0bccb55f94")


@pytest.mark.slow
def test_census_n7():
    """The n = 7 sweep against the figures of its first run (about 30 s)."""
    ctx = make_tower(7)
    census = global_orbit_census(ctx)
    records = json.dumps([list(r) for r in census.records])
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "bb70c8a0eb711e5526b02808f4a39846665a320cc5cd9dee0f1b2493b52d318e")
    assert census.orbit_count == burnside_bound(7) == 50333
    assert census.candidates == 50512
    assert Counter(r.pgl_orbits for r in census.records) == {
        42: 49542, 21: 780, 14: 9, 6: 1, 3: 1}
    assert [fixed_point_oracle(ctx, d) for d in (1, 2, 3, 6, 7, 14, 21, 42)] == [
        0, 0, 3, 9, 0, 126, 16383, 2097279]


def test_first_unvisited_matches_bit_scan():
    rng = np.random.default_rng(9)
    words = rng.integers(0, 1 << 63, 2 * counting._CHUNK_WORDS + 40, dtype=np.int64)
    words = (words.astype(np.uint64) << np.uint64(1)) | np.uint64(1)  # dense, not full
    words[:counting._CHUNK_WORDS + 3] = counting._WORD_FULL  # first chunk full
    free = np.flatnonzero(np.unpackbits(~words.view(np.uint8), bitorder="little"))
    for start, count in [(0, 1), (0, 64), (5, 200), (counting._CHUNK_WORDS + 3, 7)]:
        cursor, idx = counting._first_unvisited(words, start, count)
        assert cursor == counting._CHUNK_WORDS + 3
        assert idx.tolist() == free[:count].tolist()
    last = free[-1] >> 6
    assert counting._first_unvisited(words, int(last), 10**6)[1].tolist() == (
        free[free >> 6 >= last].tolist())
    words[:] = counting._WORD_FULL
    cursor, idx = counting._first_unvisited(words, 0, 8)
    assert cursor == words.size and idx.size == 0


def test_sweep_refuses_large_n():
    counting._sweep_cost_check(counting.MAX_SWEEP_N)
    with pytest.raises(InfeasibleError) as err:
        counting._sweep_cost_check(8)
    # the refusal words the class count (2^40 - 1)/(2^8 - 1) = 4311810305 as an expression
    assert "(2^40 - 1)/(2^8 - 1) classes" in str(err.value) and "n <= 7" in str(err.value)
    with pytest.raises(InfeasibleError):
        fixed_point_oracle(make_tower(8), 1)


def test_mark_bits_counts_only_new_bits():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, 40, dtype=np.int64).astype(np.uint64)
    before = np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)
    for idx in (rng.permutation(2560)[:300], rng.integers(0, 2560, 300),
                np.array([5, 70, 5, 2559, 64, 65, 70])):
        bits = before.copy()
        bits[idx] = True
        got = words.copy()
        assert counting._mark_bits(got, idx) == int(bits.sum() - before.sum())
        assert (np.unpackbits(got.view(np.uint8), bitorder="little") == bits).all()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_low_field_classes_are_those_of_the_subfield_spans(n):
    ctx = make_tower(n)
    index = counting._class_index(ctx)
    low = np.union1d(subfield_span_array(ctx, 2 * n), subfield_span_array(ctx, 3 * n))
    outside = np.setdiff1d(low, ctx.subfield)
    assert low.size == (1 << 2 * n) + (1 << 3 * n) - (1 << n)
    want = np.unique(index.classes(outside))
    got = index.classes(counting._low_field_class_elements(ctx))
    assert want.size == (1 << n) + 2 and sorted(got.tolist()) == want.tolist()


def brute_force_records(ctx):
    """(rep, pgl_orbits, fixed_mask) per semi-linear orbit, element by element.

    Independent of the class-indexed sweep: walks the least unvisited
    element, expands its linear orbit with pgl_orbit_array and its Frobenius
    images with frobenius_vec, and marks every element it reaches.
    """
    n, m = ctx.n, ctx.big_degree
    visited = np.zeros(1 << m, dtype=bool)
    visited[subfield_span_array(ctx, 2 * n)] = True
    visited[subfield_span_array(ctx, 3 * n)] = True
    records = []
    while not visited.all():
        alpha = int(np.argmin(visited))
        base = mobius.pgl_orbit_array(ctx, alpha)
        members = set(base.tolist())
        fixed_mask = sum(1 << p for p in range(1, m)
                         if ctx.frobenius(alpha, p) in members)
        images = [ctx.frobenius_vec(base, i) for i in range(m)]
        linear_orbits = {int(img.min()) for img in images}
        orbit = np.concatenate(images)
        assert not visited[orbit].any()
        visited[orbit] = True
        records.append((int(orbit.min()), len(linear_orbits), fixed_mask))
    return sorted(records)


@pytest.mark.parametrize("n", [2, 3])
def test_class_census_matches_element_brute_force(n):
    ctx = make_tower(n)
    got = sorted((canonical_orbit_rep(ctx, r.rep, "PGammaL"), r.pgl_orbits, r.fixed_mask)
                 for r in counting._run_sweep(ctx).records)
    assert got == brute_force_records(ctx)


def test_census_n4_recorded_values():
    ctx = make_tower(4, modulus_big=gf2poly.from_exponents([24, 7, 2, 1, 0]))
    census = global_orbit_census(ctx)
    assert census.orbit_count == 185
    assert census.pgl_orbit_count == 4111
    assert dict(census.orbit_sizes) == {
        12240: 1, 24480: 2, 32640: 2, 48960: 20, 97920: 160}
    assert census.elements_visited == (1 << 24) - (1 << 12) - (1 << 8) + (1 << 4)


def test_fixed_point_oracle_cold_cache_matches_warm(tower2):
    warm = [fixed_point_oracle(tower2, d) for d in (1, 2, 3, 4, 6, 12)]
    counting._SWEEPS.clear()
    cold = [fixed_point_oracle(tower2, d) for d in (1, 2, 3, 4, 6, 12)]
    assert cold == warm


def test_fixed_point_oracle_small(tower2):
    # measured by this sweep and stable: the full table at n=2
    table = {d: fixed_point_oracle(tower2, d) for d in (1, 2, 3, 4, 6, 12)}
    assert table == {1: 0, 2: 0, 3: 3, 4: 4, 6: 15, 12: 67}
    # reduction to the gcd divisor holds mechanically
    for i in (5, 7, 8, 9, 10, 11):
        assert fixed_point_oracle(tower2, i) == fixed_point_oracle(
            tower2, math.gcd(i, 12))
    # census cross-tabulation: sum of class sizes with period dividing d
    census = global_orbit_census(tower2, workers=1)
    for d in (1, 2, 3, 4, 6, 12):
        derived = sum(t for _, t, _ in census.records if d % t == 0)
        assert derived == table[d]


# ------------------------------------------------------------- root counting


def brute_root_counts(ctx, predicate):
    total = in_s = in2 = in3 = 0
    for x in range(1 << ctx.big_degree):
        if not predicate(x):
            continue
        total += 1
        i2 = ctx.frobenius(x, 2 * ctx.n) == x
        i3 = ctx.frobenius(x, 3 * ctx.n) == x
        in2 += i2
        in3 += i3
        in_s += not i2 and not i3
    return total, in_s, in2, in3


def eq41_predicate(ctx):
    """x^(2^(2n)+1) = x + 1, tested element by element."""
    return lambda x: ctx.mul(ctx.frobenius(x, 2 * ctx.n), x) ^ x ^ 1 == 0


def test_root_counts_match_exhaustive_sweep_n2(tower2):
    ctx = tower2
    eq41 = eq41_predicate(ctx)

    def eq3n(x):
        return ctx.frobenius(x, 6) ^ x ^ 1 == 0

    def eq_deg8(x):
        return ctx.frobenius(x, 3) ^ x ^ 1 == 0

    for which, pred in [("eq_41", eq41), ("eq_3n", eq3n), ("eq_deg8", eq_deg8)]:
        got = root_count_oracle(ctx, which)
        expect = brute_root_counts(ctx, pred)
        assert (got.total, got.in_degree_six,
                got.in_subfield_2n, got.in_subfield_3n) == expect

    got = root_count_oracle(ctx, "fixed_field_64")
    assert (got.total, got.in_degree_six) == (64, 0)  # GF(64) is a subfield here
    got = root_count_oracle(ctx, "eq_2n_affine")
    assert got.total == 0


def test_eq41_matches_exhaustive_sweep_n3(tower3):
    got = root_count_oracle(tower3, "eq_41")
    expect = brute_root_counts(tower3, eq41_predicate(tower3))
    assert (got.total, got.in_degree_six,
            got.in_subfield_2n, got.in_subfield_3n) == expect == (65, 54, 2, 9)


def test_root_oracle_rejects_unknown(tower2):
    with pytest.raises(ValueError):
        root_count_oracle(tower2, "eq_unknown")


@pytest.mark.parametrize("big", [None, "30,1,0", "30,9,0", "30,21,0", "30,29,0"])
def test_root_ranks_match_enumeration_n5(big):
    ctx = make_tower(5, modulus_big=None if big is None
                     else gf2poly.from_exponents([int(e) for e in big.split(",")]))
    for which in LINEAR_EQUATIONS:
        assert root_count_oracle(ctx, which) == enumerated_root_counts(ctx, which)


def test_root_ranks_match_enumeration_n7():
    # eq_3n's 2^21 roots are left out: listing them is what the ranks avoid
    ctx = make_tower(7)
    for which in ("eq_2n_affine", "eq_deg8", "fixed_field_64"):
        assert root_count_oracle(ctx, which) == enumerated_root_counts(ctx, which)


def test_eq3n_solver_counts_n3(tower3):
    got = root_count_oracle(tower3, "eq_3n")
    assert got.total == 1 << 9
    assert got.in_degree_six == (1 << 9) - (1 << 3)


# ------------------------------------------------------------ class equations


def test_class_equation_small(tower2):
    for d in (3, 4, 6):
        reps = fixed_orbit_representatives(tower2, d, limit=2)
        assert reps
        order = 12 // math.gcd(12, d)
        for rep in reps:
            parts = class_equation_oracle(tower2, rep, d)
            assert sum(parts) == (1 << 2) + 1
            assert all(order % p == 0 for p in parts)


def test_class_equation_rejects_unfixed_orbit(tower2):
    moving = fixed_orbit_representatives(tower2, 12)
    fixed_d1 = set(fixed_orbit_representatives(tower2, 1))
    target = next(rep for rep in moving if rep not in fixed_d1)
    with pytest.raises(ValueError):
        class_equation_oracle(tower2, target, 1)
