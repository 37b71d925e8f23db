import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LINEAR_EQUATIONS,
    TwistedNorm,
    canonical_orbit_rep,
    class_coordinates,
    class_elements,
    class_equation_oracle,
    class_ranks,
    cross_ratio_oracle,
    divisors,
    enumerated_root_counts,
    fixed_orbit_representatives,
    least_rotation_by_five_passes,
    load_bench_run,
    low_field_class_elements,
    orbit_counts_by_moebius,
    paper_fixed_points,
    records_digest,
    root_counts_by_gcd,
    subfield_span_array,
)
from goppa_orbits import counting, gf2poly, make_tower, mobius, scan
from goppa_orbits.counting import (
    InfeasibleError,
    burnside_bound,
    burnside_decomposition,
    burnside_numerator,
    euler_phi,
    fixed_point_oracle,
    fixed_points_for_power,
    global_orbit_census,
    root_count_oracle,
)
from goppa_orbits.gf2tower import Tower

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
PRIMES_TO_127 = [n for n in range(5, 128) if counting.is_prime(n)]
PRIMES_TO_701 = [n for n in range(5, 702) if counting.is_prime(n)]


# ------------------------------------------------------------- closed forms


def test_euler_phi_values():
    assert [euler_phi(k) for k in (1, 2, 3, 6, 10, 30, 42)] == [1, 1, 2, 2, 4, 8, 12]


def test_closed_forms_at_n5():
    """Every power d of sigma at n = 5, 0 and 6n included, against the
    paper's table, keyed by the order of sigma^d."""
    assert {30 // math.gcd(d, 30): fixed_points_for_power(5, d) for d in range(31)} == (
        paper_fixed_points(5))


def test_closed_forms_reduce_to_the_papers_table_at_every_prime_to_701():
    """At every prime 5 <= n <= 701, F is the paper's table term by term,
    and the phi-sum of its terms is the paper's numerator."""
    for n in PRIMES_TO_701:
        rows = burnside_decomposition(n)
        assert {r["order"]: r["fixed_points"] for r in rows} == paper_fixed_points(n), n
        assert sum(r["term"] for r in rows) == burnside_numerator(n), n


def test_closed_forms_reject_bad_inputs():
    """F and its average take any n >= 1; the paper's numerator, which
    `bound` and `fixed --table` check the sum against, only a prime n > 3."""
    for bad_n in (0, -5):
        for count in (lambda n: fixed_points_for_power(n, 1), burnside_bound):
            with pytest.raises(ValueError, match=f"^n must be positive, got {bad_n}$"):
                count(bad_n)
    for n in (1, 2, 3, 4, 9):
        with pytest.raises(ValueError, match="^closed forms require a prime n greater than 3$"):
            counting._burnside(n)


def test_the_papers_hypotheses_have_one_test(monkeypatch, capsys):
    """`has_closed_forms` is the paper's prime n > 3, and every reader of the
    hypotheses goes by it: with it patched to refuse n = 5, the paper's
    numerator is refused there, `fixed` and `roots` report no closed form
    and `fixed --table` no row. `census` does not read it: its count holds
    for every n."""
    from goppa_orbits import cli

    assert [n for n in range(-3, 62) if counting.has_closed_forms(n)] == PRIMES_TO_61
    monkeypatch.setattr(counting, "has_closed_forms", lambda n: n in (7, 11))
    with pytest.raises(ValueError, match="^closed forms require a prime n greater than 3$"):
        counting._burnside(5)
    assert cli.main(["bound", "--n", "5"]) == cli.EXIT_USAGE
    fields = {"census": ["bound", "match"], "fixed": ["closed_form", "match"],
              "roots": ["expected_in_degree_six", "match"]}
    expected = {"census": [1131, True], "fixed": [None, None], "roots": [None, None]}
    for argv in (["census", "--n", "5"], ["fixed", "--n", "5", "--d", "6"],
                 ["roots", "--n", "5", "--which", "eq_deg8"]):
        assert cli.main([*argv, "--json"]) == 0, argv
        obj = json.loads(capsys.readouterr().out)
        assert [obj[key] for key in fields[argv[0]]] == expected[argv[0]], argv
    assert cli.main(["fixed", "--table", "--nmax", "11", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_values"] == [7, 11]


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


def test_burnside_refuses_a_divisor_sum_off_the_closed_form(monkeypatch, capsys):
    """The `bound` report and each `fixed --table` row check the phi-sum of
    their one decomposition against the paper's numerator, and the orbit
    count checks that 6n divides it."""
    from goppa_orbits import cli

    rows = burnside_decomposition(5)
    rows[0]["term"] += 1
    monkeypatch.setattr(counting, "burnside_decomposition", lambda n: rows)
    with pytest.raises(counting.ConsistencyError, match="differs from closed form"):
        counting._burnside(5)
    with pytest.raises(counting.ConsistencyError, match="^closed form not divisible by 6n at n=5$"):
        burnside_bound(5)
    for argv in (["bound", "--n", "5", "--json"], ["fixed", "--n", "5", "--table", "--json"]):
        assert cli.main(argv) == cli.EXIT_MISMATCH
    assert capsys.readouterr().out == ""


def test_burnside_bound_serves_every_n():
    """The orbit count at composite and small n: the census's counts at
    n = 2..7, and the n = 8 count that the census would have to find."""
    assert [burnside_bound(n) for n in range(2, 9)] == [8, 33, 185, 1131, 7405, 50333, 350919]


def test_orbit_counts_by_moebius_are_nonnegative_integers_to_701():
    """N(t) from F by Moebius inversion is a non-negative integer at every
    n = 2..701, and the N(t) add up to the orbit count."""
    for n in range(2, 702):
        assert sum(count for _, count in orbit_counts_by_moebius(n)) == burnside_bound(n), n


def test_census_histogram_equals_the_orbit_counts_by_moebius(tower2, tower3, tower5):
    for ctx in (tower2, tower3, make_tower(4), tower5):
        assert counting._sweep(ctx.n).t_counts == orbit_counts_by_moebius(ctx.n), ctx.n


@pytest.mark.parametrize("n", range(2, 11))
def test_twisted_norm_counts_equal_the_closed_form(n):
    """Every d <= 16 dividing 6n, which beyond the census's n <= 7 reaches
    every branch of F: e = 2 with odd g at n = 9 (d = 2) and even g at
    n = 8 (d = 16), e = 3 at n = 8 (d = 12) and e = 6 at n = 10 (d = 12)."""
    got = {d: TwistedNorm(n, d).count() for d in divisors(6 * n) if d <= 16}
    assert got == {d: fixed_points_for_power(n, d) for d in got}


def test_twisted_norm_counts_equal_the_census_oracle(tower2, tower3):
    """At n = 2 and 3 the twisted norm counts what the census's fixed-point
    oracle counts, every d | 6n, F aside; d = 6n counts every linear orbit."""
    for ctx in (tower2, tower3):
        got = {d: TwistedNorm(ctx.n, d).count() for d in divisors(6 * ctx.n)}
        assert got == {d: fixed_point_oracle(ctx.n, d) for d in got}
        assert got[6 * ctx.n] == global_orbit_census(ctx).pgl_orbit_count


def test_twisted_norm_members_are_the_cross_ratios_at_n2(tower2):
    """At n = 2 the members outside {0, 1} are exactly the cross-ratios of
    the degree-6 elements, as sets: the map y -> r, r a root of the
    oracle's modulus in the tower, takes one field model to the other."""
    norm = TwistedNorm(2, 12)
    mu = np.arange(2, 1 << 12, dtype=np.int64)
    members = mu[norm.member(mu)]
    r = gf2poly.field_root(norm.m, tower2.modulus_big)
    powers = [1]
    for _ in range(11):
        powers.append(tower2.mul(powers[-1], r))
    in_tower = np.zeros_like(members)
    for i, power in enumerate(powers):
        in_tower ^= np.where(members >> i & 1, power, 0)
    alphas = [a for a in range(1 << 12) if tower2.is_degree_six(a)]
    assert len(alphas) == 4020 and members.size == 67
    assert set(Tower.apply_tables(scan.normal_tables(tower2), in_tower).tolist()) == set(
        cross_ratio_oracle(tower2, alphas).tolist())


@pytest.mark.slow
def test_twisted_norm_counts_equal_the_closed_form_to_d24():
    """Every 16 < d <= 24 dividing 6n at n = 2..10 (8-12 s, most of it
    GF(2^24) at n = 4 and 8)."""
    for n in range(2, 11):
        for d in divisors(6 * n):
            if 16 < d <= 24:
                assert TwistedNorm(n, d).count() == fixed_points_for_power(n, d), (n, d)


# ------------------------------------------------------------------ sweeps


def test_census_small_fields(tower2, tower3):
    c2 = global_orbit_census(tower2)
    assert c2.elements_visited == (1 << 12) - (1 << 4) - (1 << 6) + (1 << 2)
    assert all(size % 60 == 0 for size, _ in c2.orbit_sizes)
    assert c2.pgl_orbit_count == (1 << 6) + (1 << 2) - 1 == 67
    c3 = global_orbit_census(tower3)
    assert c3.elements_visited == (1 << 18) - (1 << 6) - (1 << 9) + (1 << 3)
    assert c3.pgl_orbit_count == (1 << 9) + (1 << 3) - 1
    assert all(size % ((1 << 9) - (1 << 3)) == 0 for size, _ in c3.orbit_sizes)


def test_census_deterministic_across_runs(tower2):
    c1 = global_orbit_census(tower2)
    c2 = global_orbit_census(tower2)
    assert c1 is not c2  # each call recomputes
    assert c1.records == c2.records
    assert c1.orbit_sizes == c2.orbit_sizes
    assert c1.orbit_count == c2.orbit_count


def test_census_reps_are_least_class_ranks(tower2, tower3):
    for ctx in (tower2, tower3):
        reps = [rep for rep, _ in global_orbit_census(ctx).records]
        ranks = class_ranks(ctx, np.array(reps, dtype=np.int64))
        assert (np.diff(ranks) > 0).all()
        for rep, rank in zip(reps, ranks.tolist()):
            base = mobius.pgl_orbit_array(ctx, rep)
            orbit = np.concatenate(
                [scan.frobenius_vec(ctx, base, i) for i in range(ctx.big_degree)])
            assert int(class_ranks(ctx, orbit).min()) == rank
        least = {canonical_orbit_rep(ctx, rep, "PGammaL") for rep in reps}
        assert len(least) == len(reps)


def test_census_n5_records_digest(tower5):
    """The n = 5 records, pinned by a sha256 recorded from the one-orbit-per-round sweep."""
    assert records_digest(tower5, scan._run_sweep(tower5).records) == (
        "a92df7bb20bd60a90a9c53d290253902478551c7b1a83067ff269c0bccb55f94")


@pytest.mark.parametrize("exponents, digest", [
    ((30, 9, 0), "09ad5e3893d7b6cfadc2d9fc76ce04c6e78d31fceeb5b0aa931be95d1865946c"),
    ((30, 21, 0), "2d121fca178b325e63effbd228c16bea237eefab282d56ce3db9bd3e064da604"),
    ((30, 29, 0), "58ec2360205b7a3b5caf0c6979976dee477ca2d14f5613b6b5ab4113ddc9153f"),
])
def test_census_n5_records_digest_on_other_moduli(exponents, digest):
    """The n = 5 records on the big moduli of the benchmark's roots and
    equiv requests, whose scans read blocks of the full size; the digests
    were taken before the scan sorted one packed key per block."""
    ctx = make_tower(5, modulus_big=gf2poly.from_exponents(exponents))
    assert records_digest(ctx, scan._run_sweep(ctx).records) == digest


def test_the_packed_sort_key_fits_in_an_int64():
    """A block's sort key is its canonical mu, below 2^(6n), shifted above
    the class's index in the block. Every block index must fit its bits,
    and 6n plus those bits must stay at most 62 for every n the scan
    accepts and for n = 8, the next census, so that the key never
    overflows an int64 without an error."""
    assert scan._FIRST_BLOCK <= scan._BLOCK <= 1 << scan._INDEX_BITS
    assert 6 * max(counting.MAX_SWEEP_N, 8) + scan._INDEX_BITS <= 62


@pytest.mark.slow
def test_census_n7():
    """The n = 7 census against the figures of its first run (about 2 s)."""
    ctx = make_tower(7)
    census = global_orbit_census(ctx)
    assert records_digest(ctx, census.records) == (
        "bb70c8a0eb711e5526b02808f4a39846665a320cc5cd9dee0f1b2493b52d318e")
    assert census.orbit_count == burnside_bound(7) == 50333
    assert Counter(t for _, t in census.records) == dict(census.t_counts) == {
        42: 49542, 21: 780, 14: 9, 6: 1, 3: 1}
    assert census.t_counts == orbit_counts_by_moebius(7)
    assert [fixed_point_oracle(7, d) for d in (1, 2, 3, 6, 7, 14, 21, 42)] == [
        0, 0, 3, 9, 0, 126, 16383, 2097279]
    # the inverse's log tables on GF(2^21)*: 2^21 logs and 2^22 - 1 powers, int32,
    # with one zero entry for every clipped sum; its byte tables add 24 KiB
    coords, out, log, exp, _ = ctx._np_tables[("_cubic_logs",)]
    assert log.dtype == exp.dtype == np.int32
    assert log.nbytes + exp.nbytes <= 24 << 20
    assert coords.nbytes + out.nbytes == 2 * 6 * 256 * 8


def test_sweep_refuses_large_n():
    counting._sweep_cost_check(counting.MAX_SWEEP_N)
    with pytest.raises(InfeasibleError) as err:
        counting._sweep_cost_check(8)
    # the refusal words the class count (2^40 - 1)/(2^8 - 1) = 4311810305 as an expression
    assert "(2^40 - 1)/(2^8 - 1) classes" in str(err.value) and "n <= 7" in str(err.value)
    with pytest.raises(InfeasibleError):
        fixed_point_oracle(8, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_class_ranks_match_the_per_coordinate_route(n):
    """`class_elements` against the coordinate-by-coordinate class-rank
    oracle: every rank at n <= 3, else the first 2q (leading indices 0 and
    1), every 97th rank after them, and the last; each element lies outside
    GF(q)."""
    ctx = make_tower(n)
    q = 1 << n
    count = (q ** 5 - 1) // (q - 1)
    ranks = np.arange(count) if n <= 3 else np.concatenate(
        [np.arange(2 * q), np.arange(2 * q, count, 97), [count - 1]])
    alpha = class_elements(ctx, ranks)
    assert class_ranks(ctx, alpha).tolist() == ranks.tolist()
    assert not (scan.frobenius_vec(ctx, alpha, n) == alpha).any()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_low_field_classes_are_those_of_the_subfield_spans(n):
    """The classes the scan drops, where mu = 0, are exactly the q + 2
    classes of GF(q^2) and GF(q^3) outside GF(q), by the class-rank oracle
    on the subfield spans."""
    ctx = make_tower(n)
    q = 1 << n
    low = np.union1d(subfield_span_array(ctx, 2 * n), subfield_span_array(ctx, 3 * n))
    outside = np.setdiff1d(low, ctx.subfield)
    assert low.size == (1 << 2 * n) + (1 << 3 * n) - (1 << n)
    want = np.unique(class_ranks(ctx, outside))
    count, step = (q ** 5 - 1) // (q - 1), 1 << 16
    got = [lo + np.flatnonzero(scan._cross_ratio(ctx, scan._class_coordinates(
        n, np.arange(lo, min(lo + step, count)))) == 0) for lo in range(0, count, step)]
    assert want.size == q + 2 and np.concatenate(got).tolist() == want.tolist()


def test_cross_ratio_matches_the_scalar_oracle_on_every_element_n2(tower2):
    x = np.arange(1 << 12, dtype=np.int64)
    mu = scan._cross_ratio(tower2, class_coordinates(tower2, x))
    assert mu.tolist() == cross_ratio_oracle(tower2, x.tolist()).tolist()


ORACLE_TOWERS = [(3, None), (3, (18, 15, 0)), (4, None), (4, (24, 16, 3, 1, 0)), (5, None),
                 (5, (30, 29, 0)), (6, None), (6, (36, 27, 0)), (7, None), (7, (42, 35, 0))]


@pytest.mark.parametrize("n, exponents", ORACLE_TOWERS, ids=[
    f"{n}-{','.join(map(str, e)) if e else 'default'}" for n, e in ORACLE_TOWERS])
def test_cross_ratio_matches_the_scalar_oracle(n, exponents):
    """The census's mu, in coordinates over GF(q^3), against the scalar
    kernel on 2000 drawn classes and on the q + 2 classes inside GF(q^2)
    and GF(q^3), where it is 0. n = 6 and 7 pack v past bit 31."""
    ctx = make_tower(n, modulus_big=exponents and gf2poly.from_exponents(exponents))
    q = 1 << n
    low = class_ranks(ctx, np.array(low_field_class_elements(ctx), dtype=np.int64))
    assert np.unique(low).size == q + 2
    ranks = np.concatenate([low, np.random.default_rng(n).integers(
        0, (q ** 5 - 1) // (q - 1), 2000)])
    alpha = class_elements(ctx, ranks)
    mu = scan._cross_ratio(ctx, scan._class_coordinates(n, ranks))
    assert mu.tolist() == cross_ratio_oracle(ctx, alpha.tolist()).tolist()
    assert ((mu == 0) == np.isin(ranks, low)).all()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cross_ratio_is_a_semilinear_invariant(n):
    """mu(m(alpha)) = mu(alpha) for a random PGL(2, q) map m, and
    mu(alpha^2) = mu(alpha)^2, a rotation of its normal-basis coordinates,
    on random degree-6 alpha; mu is the scalar formula and lies outside
    {0, 1}, whose coordinates are all ones."""
    ctx = make_tower(n)
    m = ctx.big_degree

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, (1 << 6 * n) - 1).filter(ctx.is_degree_six),
           st.lists(st.integers(0, (1 << n) - 1), min_size=4, max_size=4))
    def check(alpha, entries):
        a, b, c, d = (ctx.embed_base(e) for e in entries)
        assume(ctx.mul(a, d) ^ ctx.mul(b, c))
        beta = mobius.apply_map(ctx, mobius.make_map(ctx, a, b, c, d), alpha)
        mu = scan._cross_ratio(ctx, class_coordinates(
            ctx, np.array([alpha, beta, ctx.square(alpha)]))).tolist()
        assert mu[0] == cross_ratio_oracle(ctx, [alpha])[0] not in (0, (1 << m) - 1)
        assert mu[1] == mu[0] and mu[2] == ((mu[0] << 1) & ((1 << m) - 1)) | mu[0] >> (m - 1)

    check()


def test_cross_ratio_is_zero_exactly_off_the_degree_six_set(tower2):
    x = np.arange(1 << 12)
    mu = scan._cross_ratio(tower2, class_coordinates(tower2, x))
    six = np.array([tower2.is_degree_six(v) for v in range(1 << 12)])
    assert six.sum() == 4020
    assert ((mu == 0) == ~six).all() and (mu != (1 << 12) - 1).all()  # mu = 1: all ones


def test_scan_raises_unless_its_orbits_fill_the_tower(monkeypatch):
    """The scan's last check, after its stop rule: the linear orbits and
    GF(q^2) u GF(q^3) make up the tower's order. A tower that counts one
    element too many fails it."""
    ctx = make_tower(3)
    monkeypatch.setattr(ctx, "order", ctx.order + 1)
    # q = 8: 519 linear orbits of 504 elements, and 2^18 + 1 - (64 + 512 - 8)
    with pytest.raises(counting.ConsistencyError,
                       match=r"^orbit sizes sum to 261576, expected \|S\| = 261577$"):
        global_orbit_census(ctx)


@pytest.mark.parametrize("coarsen", ["merge two orbits", "no squarings"])
def test_scan_raises_unless_its_orbits_hold_every_class(tower3, monkeypatch, coarsen):
    """An invariant that merges two orbits makes the scan run out of ranks
    one orbit's classes short; one that splits orbits (mu itself, not the
    least of its squarings) carries the sum past the total. Both raise."""
    q = 1 << 3
    total = (q ** 5 - 1) // (q - 1) - (q + 2)
    records = scan._run_sweep(tower3).records
    canonical = scan._canonical
    mu = scan._cross_ratio(tower3, class_coordinates(
        tower3, np.array([rep for rep, _ in records[:2]])))
    c0, c1 = canonical(tower3, mu)

    def coarse(ctx, mu):
        if coarsen == "merge two orbits":
            least = canonical(ctx, mu)
            return np.where(least == c1, c0, least)
        # mu's own normal-basis coordinates, whose period is still t
        return mu

    monkeypatch.setattr(scan, "_canonical", coarse)
    with pytest.raises(counting.ConsistencyError, match=f"not the {total} degree-6") as err:
        scan._run_sweep(tower3)
    held = int(str(err.value).split()[4])  # "the scan's orbits hold <held> classes, ..."
    if coarsen == "merge two orbits":
        assert held == total - records[1][1] * (q + 1)
    else:
        assert held > total


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_canonical_is_the_least_squaring_and_its_period(n):
    """`_canonical` and `_period` against Frobenius powers: the period of the
    least value is the least p >= 1 with `frobenius_vec(mu, p) == mu`, and
    the least value is constant on each squaring orbit and differs between
    orbits. Every element at n = 2; elsewhere the subfields GF(2^d), d | 6n,
    d <= 12, and random elements."""
    ctx = make_tower(n)
    m = ctx.big_degree
    if n == 2:
        mu = np.arange(1 << m, dtype=np.int64)
    else:
        rng = np.random.default_rng(n)
        mu = np.concatenate([subfield_span_array(ctx, d) for d in range(1, 13) if m % d == 0]
                            + [rng.integers(0, 1 << m, 2000)])
    def canonical(x):
        return scan._canonical(ctx, ctx.apply_tables(scan.normal_tables(ctx), x))

    least = canonical(mu)
    t = scan._period(m, least)
    images = [mu]
    for _ in range(m):
        images.append(scan.frobenius_vec(ctx, images[-1], 1))
    period = np.array([min(p for p in range(1, m + 1) if images[p][k] == mu[k])
                       for k in range(mu.size)])
    assert t.tolist() == period.tolist()
    for image in images[1:]:
        assert (canonical(image) == least).all()
    orbit_min = np.minimum.reduce(images)  # the least polynomial encoding in the orbit
    assert np.unique(least).size == np.unique(orbit_min).size == np.unique(
        np.stack([least, orbit_min]), axis=1).shape[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_canonical_equals_the_five_pass_rotations(n):
    """`_canonical` on its doubled word against one rotation at a time:
    every value at n = 2; elsewhere 0, the all-ones word, values of every
    period d < 6n (a random d-bit block repeated) and random values, 4096
    in all. n = 6 and 7 take the second stage."""
    ctx = make_tower(n)
    m = ctx.big_degree
    if n == 2:
        mu = np.arange(1 << m, dtype=np.int64)
    else:
        rng = np.random.default_rng(n)
        periodic = [int(rng.integers(0, 1 << d)) * ((1 << m) - 1) // ((1 << d) - 1)
                    for d in range(1, m) if m % d == 0 for _ in range(8)]
        mu = np.array([0, (1 << m) - 1, *periodic], dtype=np.int64)
        mu = np.concatenate([mu, rng.integers(0, 1 << m, 4096 - mu.size)])
    least = scan._canonical(ctx, mu)
    assert least.dtype == np.int64
    assert least.tolist() == least_rotation_by_five_passes(m, mu).tolist()


def brute_force_records(ctx):
    """(rep, pgl_orbits) per semi-linear orbit, element by element.

    Independent of the cross-ratio scan: walks the least unvisited
    element, expands its linear orbit with pgl_orbit_array and its Frobenius
    images with frobenius_vec, and marks every element it reaches. The
    powers p < 6n whose sigma^p fixes the linear orbit are the multiples of
    its count of linear orbits, the rule the census's records rest on.
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
        images = [scan.frobenius_vec(ctx, base, i) for i in range(m)]
        linear_orbits = {int(img.min()) for img in images}
        orbit = np.concatenate(images)
        assert not visited[orbit].any()
        visited[orbit] = True
        t = len(linear_orbits)
        assert fixed_mask == sum(1 << p for p in range(t, m, t))
        records.append((int(orbit.min()), t))
    return sorted(records)


@pytest.mark.parametrize("n", [2, 3])
def test_class_census_matches_element_brute_force(n):
    ctx = make_tower(n)
    got = sorted((canonical_orbit_rep(ctx, rep, "PGammaL"), t)
                 for rep, t in scan._run_sweep(ctx).records)
    assert got == brute_force_records(ctx)


def test_census_n4_recorded_values():
    """The n = 4 census on three big moduli. Under 24,7,2,1,0 the last orbit's
    least class lies in the scan's first block; under 24,9,3,1,0 and
    24,16,3,1,0 it lies past it (ranks 2150 and 5339), so the scan reads
    further blocks and its records pass the bookkeeping across blocks. The
    digests were taken before the scan sorted one packed key per block. The
    fixed table satisfies Burnside's identity."""
    fixed = {1: 0, 2: 0, 3: 3, 4: 0, 6: 15, 8: 16, 12: 255, 24: 4111}
    assert sum(euler_phi(24 // d) * f for d, f in fixed.items()) == 185 * 24
    for exponents, last_rank, digest in (
            ((24, 7, 2, 1, 0), 1704,
             "f9ea6262337b150cbf3f07bcf047dae52fa63f0169f77480f8e902c59ac08c56"),
            ((24, 9, 3, 1, 0), 2150,
             "e40cc93eee9b59f8cd9bfb27e510bdc0cbacf79c20b875ced5483743e8ee8975"),
            ((24, 16, 3, 1, 0), 5339,
             "621d405d9bf464a8ef5fd67e13ef5cef509e024057d4e62f077e36bfafbb8829")):
        ctx = make_tower(4, modulus_big=gf2poly.from_exponents(exponents))
        census = global_orbit_census(ctx)
        assert records_digest(ctx, census.records) == digest
        assert census.orbit_count == 185
        assert census.pgl_orbit_count == 4111
        assert dict(census.orbit_sizes) == {
            12240: 1, 24480: 2, 32640: 2, 48960: 20, 97920: 160}
        assert census.elements_visited == (1 << 24) - (1 << 12) - (1 << 8) + (1 << 4)
        reps = np.array([rep for rep, _ in census.records], dtype=np.int64)
        assert int(class_ranks(ctx, reps).max()) == last_rank
        assert {d: fixed_point_oracle(4, d, modulus_big=ctx.modulus_big) for d in fixed} == fixed


@pytest.mark.parametrize("n, exponents", [(4, (4, 3, 0)), (5, (5, 3, 0)), (5, (5, 4, 3, 2, 0))])
def test_census_under_a_non_default_base_modulus(n, exponents):
    """The class basis gamma_k * theta^j moves with the embedding, and so
    with modulus_base; the census keeps the count and the orbit-size
    histogram of the default moduli."""
    default = global_orbit_census(make_tower(n))
    census = global_orbit_census(make_tower(n, modulus_base=gf2poly.from_exponents(exponents)))
    assert census.orbit_count == default.orbit_count == {4: 185, 5: 1131}[n]
    assert census.orbit_sizes == default.orbit_sizes
    assert census.pgl_orbit_count == default.pgl_orbit_count


def test_census_keeps_one_table_record(monkeypatch):
    """A census on a fresh tower leaves four entries in the tower's table
    cache: the census's one record, the coordinate kernel's record, the
    tables of sigma^n and the normal-basis tables. A second census on the
    same tower builds no byte table."""
    built = []
    byte_tables = Tower._byte_tables
    monkeypatch.setattr(Tower, "_byte_tables",
                        lambda self, cols: built.append(len(cols)) or byte_tables(self, cols))
    ctx = make_tower(4)
    first = global_orbit_census(ctx)
    assert sorted(ctx._np_tables) == [
        ("_census_tables",), ("_cubic_logs",), ("frob", 4), ("normal_tables",)]
    assert built  # the counter sees the first census build its tables
    built.clear()
    assert global_orbit_census(ctx).records == first.records
    assert built == []


def test_fixed_point_oracle_cold_cache_matches_warm():
    warm = [fixed_point_oracle(2, d) for d in (1, 2, 3, 4, 6, 12)]
    counting._SWEEPS.clear()
    cold = [fixed_point_oracle(2, d) for d in (1, 2, 3, 4, 6, 12)]
    assert cold == warm


def test_fixed_point_oracle_small(tower2):
    # measured by this sweep and stable: the full table at n=2
    table = {d: fixed_point_oracle(2, d) for d in (1, 2, 3, 4, 6, 12)}
    assert table == {1: 0, 2: 0, 3: 3, 4: 4, 6: 15, 12: 67}
    # reduction to the gcd divisor holds mechanically
    for i in (5, 7, 8, 9, 10, 11):
        assert fixed_point_oracle(2, i) == fixed_point_oracle(2, math.gcd(i, 12))
    # census cross-tabulation: sum of class sizes with period dividing d
    census = global_orbit_census(tower2)
    for d in (1, 2, 3, 4, 6, 12):
        derived = sum(t for _, t in census.records if d % t == 0)
        assert derived == table[d]


def no_tower(*args, **kwargs):
    raise AssertionError("built a tower")


def n4_bench_towers(monkeypatch):
    """Towers at n = 4 on the four big moduli of the benchmark's census workload."""
    load_bench_run(monkeypatch)
    import workloads
    return [make_tower(4, modulus_big=gf2poly.from_exponents([int(e) for e in big.split(",")]))
            for big in workloads.N4_BIG_MODULI]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_t_counts_are_the_records_histogram(n):
    """N(t), counted once per census, is the histogram of the records' t,
    ascending; sum t N(t) is the linear-orbit count, sum N(t) the orbit
    count, and the orbit sizes are t(q^3 - q) with multiplicity N(t)."""
    census = global_orbit_census(make_tower(n))
    hist = Counter(t for _, t in census.records)
    assert census.t_counts == tuple(sorted(hist.items()))
    assert sum(t * count for t, count in census.t_counts) == census.pgl_orbit_count
    assert sum(count for _, count in census.t_counts) == census.orbit_count
    assert census.orbit_sizes == tuple(sorted(
        Counter(t * census.pgl_orbit_size for _, t in census.records).items()))


def test_fixed_point_oracle_is_the_per_record_sum(monkeypatch):
    """sum t N(t) over the t dividing d equals the sum of t over the records
    whose t divides d, for every d | 6n: n = 2..5 on the default moduli, and
    n = 4 on the benchmark's four big moduli."""
    for ctx in [make_tower(n) for n in range(2, 6)] + n4_bench_towers(monkeypatch):
        records = global_orbit_census(ctx).records
        m = ctx.big_degree
        for d in (d for d in range(1, m + 1) if m % d == 0):
            got = fixed_point_oracle(ctx.n, d, modulus_big=ctx.modulus_big)
            assert got == sum(t for _, t in records if d % t == 0), (ctx, d)


def test_fixed_point_oracle_reads_a_cached_census_by_its_moduli(monkeypatch):
    """After a census at n = 4 on the default moduli and on each of the
    benchmark's four big moduli, the oracle reads it by the request's moduli
    and builds no tower, with the value an empty cache gives, for every
    d | 24. Moduli equal to the defaults, given or omitted, are one key."""
    bigs = [ctx.modulus_big for ctx in n4_bench_towers(monkeypatch)]
    cold = {}
    for big in bigs:
        for d in divisors(24):
            counting._SWEEPS.clear()
            cold[big, d] = fixed_point_oracle(4, d, modulus_big=big)
    counting._SWEEPS.clear()
    for big in (None, *bigs):
        global_orbit_census(make_tower(4, modulus_big=big))
    monkeypatch.setattr(counting, "make_tower", no_tower)
    default = gf2poly.from_exponents((4, 1, 0)), gf2poly.from_exponents((24, 4, 3, 1, 0))
    for d in divisors(24):
        for big in bigs:
            assert fixed_point_oracle(4, d, modulus_big=big) == cold[big, d], (big, d)
        assert fixed_point_oracle(4, d) == fixed_point_oracle(4, d, *default) == cold[
            default[1], d]


def test_fixed_point_oracle_refusals_do_not_depend_on_the_cache():
    """With n = 4's census cached, a reducible modulus still meets the
    tower's check, and an n no tower is built for, or above the census's
    limit, its own refusal."""
    global_orbit_census(make_tower(4))
    for args, error, message in (
            ((4, 6, None, gf2poly.from_exponents((24, 1, 0))), ValueError,
             "modulus_big must be irreducible of degree 6n"),
            ((4, 6, gf2poly.from_exponents((4, 3, 2, 0))), ValueError,
             "modulus_base must be irreducible of degree n"),
            ((1, 1), ValueError, "n must be at least 2"),
            ((18, 1), ValueError, "n=18 is outside the construction cap"),
            ((8, 1), InfeasibleError, "n=8: the census")):
        with pytest.raises(error) as err:
            fixed_point_oracle(*args)
        assert str(err.value).startswith(message), args


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


@pytest.mark.parametrize("n", range(2, 8))
def test_eq41_rank_equals_gcd_oracle(n):
    assert root_count_oracle(make_tower(n), "eq_41") == root_counts_by_gcd("eq_41", n)


@pytest.mark.slow
def test_eq41_rank_equals_gcd_oracle_n8():
    assert root_count_oracle(make_tower(8), "eq_41") == root_counts_by_gcd("eq_41", 8)


@pytest.mark.parametrize("n, base, big", [
    *((4, None, big) for big in ("24,4,3,1,0", "24,7,2,1,0", "24,9,3,1,0", "24,16,3,1,0")),
    (4, "4,3,0", None),
    *((5, None, big) for big in ("30,1,0", "30,9,0", "30,21,0", "30,29,0"))])
def test_eq41_rank_is_the_same_under_other_moduli(n, base, big):
    def modulus(exps):
        return None if exps is None else gf2poly.from_exponents([int(e) for e in exps.split(",")])

    ctx = make_tower(n, modulus_base=modulus(base), modulus_big=modulus(big))
    assert root_count_oracle(ctx, "eq_41") == root_counts_by_gcd("eq_41", n)


@pytest.mark.parametrize("n", PRIMES_TO_127)
def test_root_lemmas_at_every_prime_to_the_tower_cap(monkeypatch, n):
    """The five equations' degree-6 root counts equal the paper's closed
    forms at every prime 5 <= n <= 127 (about 2 s in all), on towers whose
    default moduli are read from the table, not searched for."""
    def no_search(d):
        raise AssertionError(f"searched degree {d}")

    monkeypatch.setattr(gf2poly, "lowest_irreducible", no_search)
    ctx = make_tower(n)
    assert (gf2poly.degree(ctx.modulus_base), gf2poly.degree(ctx.modulus_big)) == (n, 6 * n)
    for which in counting.ROOT_EQUATIONS:
        assert root_count_oracle(ctx, which).in_degree_six == counting.ROOT_EXPECTED[which](n), (
            which)
    for which in GCD_SPLITS:
        assert root_count_oracle(ctx, which) == root_counts_by_gcd(which, n), which


# the equations whose gcd oracle stays small at any n: P of degree 8 and 64
GCD_SPLITS = ("eq_deg8", "fixed_field_64")


@pytest.mark.parametrize("n", range(2, 17))
def test_subfield_splits_equal_the_gcd_oracle(n):
    """Every tally, the subfield splits too, of the two equations with a
    small squarefree P, on every tower with n <= 16."""
    ctx = make_tower(n)
    for which in GCD_SPLITS:
        assert root_count_oracle(ctx, which) == root_counts_by_gcd(which, n), which


@pytest.mark.parametrize("n", [5, 7])
def test_root_counts_build_only_the_column_tables_they_read(n):
    """On a fresh tower, x^(2^k) + x = rhs builds sigma^k's columns and,
    only when it has roots, sigma^n's (a coset of d + 1 vectors, 3(d + 1) <
    6n) or sigma^(2n)'s and sigma^(3n)'s, never all three; eq_2n_affine has
    no roots. eq_41 reads its two kernels' columns and the squaring's; the
    smaller kernel lies in GF(2^(3n)) whole, so sigma^(3n)'s are not read."""
    tables = {"eq_3n": {3 * n, 2 * n}, "eq_2n_affine": {2 * n}, "eq_deg8": {3, n},
              "fixed_field_64": {6, n}, "eq_41": {1, n, 2 * n, 4 * n}}
    for which, keys in tables.items():
        ctx = make_tower(n)
        root_count_oracle(ctx, which)
        assert set(ctx._frob_cache) == {0} | keys, which


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
