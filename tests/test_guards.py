"""Every runtime guard of the second routes fires in a test.

Each test forces one guard through its public route, by a bad argument or
by a fault injected with `monkeypatch` (a wrong table, a wrong kernel, a
wrong closed form), and asserts the exception and its message; where the CLI reaches the guard, the
exit code and the one stderr line, with no traceback, too. A
`ConsistencyError` or an `AssertionError` of the arithmetic exits 1, a
`ValueError` exits 2.
"""

import re

import pytest

from goppa_orbits import cli, codes, counting, gf2poly, gf2tower
from goppa_orbits.counting import ConsistencyError
from goppa_orbits.gf2tower import Tower, make_tower


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line(capsys, argv, code, line):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err == line + "\n" and "Traceback" not in err


def test_burnside_refuses_a_numerator_that_6n_does_not_divide(monkeypatch, capsys):
    """The order-1 closed form one too large in F and in the numerator
    alike: the phi-weighted sum still equals the numerator, and only the
    division by 6n breaks."""
    fixed, numerator = counting.fixed_points_for_power, counting.burnside_numerator
    monkeypatch.setattr(counting, "fixed_points_for_power",
                        lambda n, d: fixed(n, d) + (d == 6 * n))
    monkeypatch.setattr(counting, "burnside_numerator", lambda n: numerator(n) + 1)
    message = "closed form not divisible by 6n at n=5"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        counting.burnside_bound(5)
    assert_one_line(capsys, ["bound", "--n", "5"], 1, f"falsified internal claim: {message}")
    assert_one_line(capsys, ["fixed", "--n", "5", "--table", "--nmax", "5"], 1,
                    f"falsified internal claim: {message}")


def drop_one_kernel_vector(monkeypatch):
    """Every root count's elimination hands back one kernel vector too few."""
    solve = counting.solve_affine_linearized

    def faulty(cols, b):
        coset = solve(cols, b)
        return coset and (coset[0], coset[1][1:])

    monkeypatch.setattr(counting, "solve_affine_linearized", faulty)


def test_eq41_refuses_a_kernel_that_is_not_a_union_of_lines(monkeypatch, capsys):
    """With a kernel of dimension 19, not a multiple of 10, the nonzero
    elements of ker L in GF(2^30) do not fall into lines of 2^10 - 1."""
    drop_one_kernel_vector(monkeypatch)
    message = ("eq_41: 524287 nonzero kernel elements in GF(2^30), "
               "not a multiple of 2^10 - 1")
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        counting.root_count_oracle(make_tower(5), "eq_41")
    assert_one_line(capsys, ["roots", "--n", "5", "--which", "eq_41"], 1,
                    f"falsified internal claim: {message}")


@pytest.mark.parametrize("which, total, dim", [("eq_3n", 1 << 14, 15),
                                               ("fixed_field_64", 1 << 5, 6)])
def test_linear_counts_refuse_a_solution_count_off_the_kernel(monkeypatch, capsys,
                                                              which, total, dim):
    """x^(2^k) + x = rhs has 0 or 2^gcd(k, 6n) solutions in GF(2^(6n)): a
    kernel one vector short gives half of them."""
    drop_one_kernel_vector(monkeypatch)
    message = f"{which}: {total} solutions, not 0 or 2^{dim}"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        counting.root_count_oracle(make_tower(5), which)
    assert_one_line(capsys, ["roots", "--n", "5", "--which", which, "--json"], 1,
                    f"falsified internal claim: {message}")


EMBEDDING = "embedding image differs from the fixed field"
ROOT = "embedding root is not the least root of modulus_base"
BIG_30_29_0 = gf2poly.from_exponents([30, 29, 0])


def test_embedding_refuses_dependent_columns(monkeypatch, capsys):
    """A root check that passes and hands back the powers of 1 in place of
    gamma's: one column n times over, which spans GF(2), not GF(2^n)."""
    monkeypatch.setattr(Tower, "_least_root_powers", lambda self, gamma: [1] * (self.n + 1))
    with pytest.raises(AssertionError, match=f"^{re.escape(EMBEDDING)}$"):
        make_tower(5, modulus_big=BIG_30_29_0).subfield
    assert_one_line(capsys, ["code", "--n", "5", "--modulus-big", "30,29,0", "--alpha", "random",
                             "--seed", "1"], 1, f"falsified internal claim: {EMBEDDING}")


@pytest.mark.parametrize("wrong", ["second conjugate", "plus one"])
def test_embedding_refuses_a_wrong_tabled_root(monkeypatch, capsys, wrong):
    """A `_ROOTS` entry for n = 5 that is gamma^2, a root of modulus_base but
    not the least, or the least conjugate of gamma + 1, which is the least
    of its conjugates but a root of f(x + 1), not of f."""
    ctx = make_tower(5)
    gamma = gf2tower._default_roots()[5]
    conjugates = [ctx.frobenius(gamma ^ 1, i) for i in range(5)]
    entry = ctx.square(gamma) if wrong == "second conjugate" else min(conjugates)
    monkeypatch.setitem(gf2tower._default_roots(), 5, entry)
    with pytest.raises(AssertionError, match=f"^{re.escape(ROOT)}$"):
        make_tower(5).subfield
    assert_one_line(capsys, ["code", "--n", "5", "--alpha", "random", "--seed", "1"], 1,
                    f"falsified internal claim: {ROOT}")


def test_embedding_refuses_a_searched_root_that_is_not_a_root(monkeypatch, capsys):
    """A root finder that answers y, which is not a root of modulus_base in
    the model's field on these towers: the searched gamma fails the check a
    tabled one passes, and no command reads a wrong embedding."""
    monkeypatch.setattr(gf2poly, "field_root", lambda f, m: 2)
    with pytest.raises(AssertionError, match=f"^{re.escape(ROOT)}$"):
        make_tower(5, modulus_big=gf2poly.from_exponents([30, 9, 0])).subfield
    for argv in (["code", "--n", "5", "--modulus-big", "30,9,0", "--alpha", "random",
                  "--seed", "1", "--extended", "--json"],
                 ["census", "--n", "4", "--modulus-big", "24,16,3,1,0", "--json"]):
        assert_one_line(capsys, argv, 1, f"falsified internal claim: {ROOT}")


def squaring_for_sigma_n(monkeypatch):
    """Every tower the CLI builds, and the tower builder this returns, read
    the squaring's columns (sigma^1) for sigma^n: seeded into the cache
    before its first read."""
    def seeded(*args, **kwargs):
        ctx = make_tower(*args, **kwargs)
        monkeypatch.setitem(ctx._frob_cache, ctx.n, ctx._frob_cols(1))
        return ctx

    monkeypatch.setattr(cli, "make_tower", seeded)
    return seeded


def test_conjugates_refuse_an_orbit_longer_than_six(monkeypatch, capsys):
    """x, a root of the big modulus, has degree 6 over GF(q); on a sigma^n
    table that squares, its orbit has 6n > 6 members."""
    seeded = squaring_for_sigma_n(monkeypatch)
    message = "element outside the degree-6 tower"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        seeded(5).conjugates(2)
    assert_one_line(capsys, ["code", "--n", "5", "--alpha", "2"], 1,
                    f"falsified internal claim: {message}")


def test_goppa_parity_refuses_a_root_in_the_support(monkeypatch, capsys):
    """A minimal polynomial x^6 + 1, which has the root 1 in GF(q)."""
    monkeypatch.setattr(Tower, "minimal_polynomial", lambda self, alpha: (1, 0, 0, 0, 0, 0, 1))
    message = "g has a root in the support"
    ctx = make_tower(5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        codes.goppa_parity(ctx, ctx.minimal_polynomial(2), list(ctx.subfield))
    for extended in ((), ("--extended",)):
        assert_one_line(capsys, ["code", "--n", "5", "--alpha", "2", *extended], 2,
                        f"error: {message}")


def test_goppa_parity_refuses_a_support_point_outside_the_subfield(monkeypatch, capsys):
    """A subfield list whose last element is x, of degree 6n, which has no
    log in GF(q)*."""
    subfield = Tower.subfield
    monkeypatch.setattr(Tower, "subfield",
                        property(lambda self: (*subfield.fget(self)[:-1], 2)))
    message = "support point outside GF(2^n) u {inf}"
    ctx = make_tower(5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        codes.goppa_parity(ctx, ctx.minimal_polynomial(2), list(ctx.subfield))
    for extended in ((), ("--extended",)):
        assert_one_line(capsys, ["code", "--n", "5", "--alpha", "2", *extended], 2,
                        f"error: {message}")


def test_census_refuses_a_record_outside_the_tower(monkeypatch, capsys):
    """A census whose records end with the encoding 2^(6n), one past the
    tower's last element: its row has no hex of the tower's width."""
    census = counting.global_orbit_census

    def one_record_too_many(ctx):
        out = census(ctx)
        return out._replace(records=(*out.records, (ctx.order, 1)))

    monkeypatch.setattr(counting, "global_orbit_census", one_record_too_many)
    for mode in ((), ("--json",)):
        assert_one_line(capsys, ["census", "--n", "2", *mode], 2, "error: encoding out of range")


def test_hex_refuses_an_encoding_outside_the_field(monkeypatch, capsys):
    """Both ends of each range; in `equiv`, beta = 2^(6n), one past the
    tower's last element, reaches `to_hex`."""
    ctx = make_tower(5)
    for x in (-1, ctx.order):
        with pytest.raises(ValueError, match="^encoding out of range$"):
            ctx.to_hex(x)
    with pytest.raises(ValueError, match="^base encoding out of range$"):
        ctx.base_to_hex(1 << 5)
    assert (ctx.to_hex(ctx.order - 1), ctx.base_to_hex(31)) == ("3fffffff", "1f")
    check = codes.check_extended_equivalence
    monkeypatch.setattr(codes, "check_extended_equivalence",
                        lambda ctx, alpha, m: check(ctx, alpha, m)._replace(beta=ctx.order))
    assert_one_line(capsys, ["equiv", "--n", "5", "--alpha", "random", "--map", "random",
                             "--seed", "1", "--json"], 2, "error: encoding out of range")


def test_lowest_irreducible_refuses_degree_below_one_and_a_failed_search(monkeypatch):
    for d in (0, -3):
        with pytest.raises(ValueError, match="^degree must be positive$"):
            gf2poly.lowest_irreducible(d)
    monkeypatch.setattr(gf2poly, "is_irreducible", lambda p, chain=None: False)
    with pytest.raises(AssertionError, match="^no irreducible of degree 5 found$"):
        gf2poly.lowest_irreducible(5)
