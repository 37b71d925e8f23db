import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    alternant_parity,
    code_from_generator,
    eval_poly,
    extended_parity_by_ones_row,
    fixed_field_basis,
    induced_permutation_by_apply_map,
    inversion_columns,
    multipliers,
    parity_by_nullspace,
    power,
    stacked_columns,
    transform_polynomial,
)
from goppa_orbits.codes import (
    BinaryCode,
    check_extended_equivalence,
    code_to_json,
    extend_code,
    extended_goppa_code,
    extended_parity,
    goppa_code,
    goppa_parity,
    induced_permutation,
    nullspace,
    parity_basis,
    rref,
    subfield_subcode,
    weight_enumerator,
)
from goppa_orbits.mobius import (
    apply_map,
    infinity,
    make_map,
    random_degree_six,
    random_map,
)
from goppa_orbits import codes, make_tower, schema


def projective_support(ctx):
    return list(ctx.subfield) + [infinity(ctx)]


def permuted_rows(rows, perm):
    """Rows of y with y_j = x_perm[j], moved bit by bit."""
    return [sum(((x >> pj) & 1) << j for j, pj in enumerate(perm)) for x in rows]


# ------------------------------------------------------------- linear algebra


def test_rref_and_nullspace():
    rows = [0b1010, 0b0110, 0b1100]
    r = rref(rows)
    assert len(r) == 2  # rank 2: rows are dependent
    ns = nullspace(rows, 4)
    assert len(ns) == 2
    for v in ns:
        for row in rows:
            assert (v & row).bit_count() % 2 == 0


def test_code_from_generator_rank_identity():
    code = code_from_generator([0b0011, 0b1100, 0b1111], 4)
    assert code.dimension == 2
    assert parity_by_nullspace(code) == (0b0011, 0b1100)


def test_codes_compare_by_length_and_generator():
    code = code_from_generator([0b0011], 4)
    assert code == code_from_generator([0b0011, 0b0011], 4)
    assert hash(code) == hash(code_from_generator([0b0011, 0b0011], 4))
    assert code != code_from_generator([0b1100], 4)
    assert code != code_from_generator([0b0011], 5)


@st.composite
def column_sets(draw):
    """Up to 40 parity columns of up to 45 bits: random columns of a random
    height, or all zero (the full code), or unit columns (the zero code,
    whose parity-check matrix has as many rows as columns)."""
    length = draw(st.integers(1, 40))
    height = draw(st.integers(1, 45))
    return draw(st.one_of(
        st.lists(st.integers(0, (1 << height) - 1), min_size=length, max_size=length),
        st.just([0] * length),
        st.just([1 << j for j in range(length)])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=column_sets())
def test_derived_parity_is_the_reduced_dual_basis(columns):
    """The row space of the columns' matrix, reduced, is the nullspace of
    the code's generator, reduced; under the all-ones row, a column of it
    appended, it is the parity basis of the extended code."""
    code = subfield_subcode(columns)
    parity = parity_basis(columns)
    assert parity == parity_by_nullspace(code)
    assert rref(list(parity)) == parity
    assert all((g & h).bit_count() % 2 == 0 for g in code.generator for h in parity)
    assert len(parity) == code.length - code.dimension
    ones = 1 << 45
    extended = [c | ones for c in columns] + [ones]
    assert subfield_subcode(extended) == extend_code(code)
    assert parity_basis(extended) == extended_parity_by_ones_row(code)


def test_code_report_checks_the_derived_parity(tower5, monkeypatch):
    """A parity basis that is not orthogonal to the generator, or one row
    short, stops the report: the checks compare the two eliminations of the
    parity-check matrix."""
    alpha = random_degree_six(tower5, random.Random(15))
    g = tower5.minimal_polynomial(alpha)
    columns = extended_parity(tower5, g)
    pivot = extended_goppa_code(tower5, g).generator[0]
    pivot &= -pivot
    inner = codes.rref

    def corrupted(rows):  # flip the first generator row's pivot in one row
        return inner([rows[0] ^ pivot, *rows[1:]])

    monkeypatch.setattr(codes, "rref", corrupted)
    with pytest.raises(AssertionError, match="not orthogonal"):
        code_to_json(tower5, alpha, g, columns)
    monkeypatch.setattr(codes, "rref", lambda rows: inner(rows)[:-1])
    with pytest.raises(AssertionError, match="rank defect"):
        code_to_json(tower5, alpha, g, columns)


@pytest.mark.parametrize("n", range(2, 8))
def test_code_report_parity_rows_are_the_reduced_dual(n):
    """The report's rows are the reduced generator and the parity basis of
    the route that reduces the generator's nullspace, for plain and
    extended codes. At n = 2 and 3 the codes are {0}: the parity-check
    matrix has more rows (6n, or 6n + 1) than columns, and full rank."""
    ctx, _ = tower_and_support(n)

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, (1 << 32) - 1), extended=st.booleans())
    def check(seed, extended):
        alpha = random_degree_six(ctx, random.Random(seed))
        g = ctx.minimal_polynomial(alpha)
        if extended:
            code, columns = extended_goppa_code(ctx, g), extended_parity(ctx, g)
        else:
            code, columns = goppa_code(ctx, g), goppa_parity(ctx, g, list(ctx.subfield))
        report = code_to_json(ctx, alpha, g, columns)
        assert n > 3 or code.dimension == 0
        width = -(-code.length // 4)
        assert report["generator_rows"] == [format(r, f"0{width}x") for r in code.generator]
        assert report["parity_rows"] == [
            format(r, f"0{width}x") for r in parity_by_nullspace(code)]

    check()


# ------------------------------------------------------------ parity builders


def test_alternant_parity_structure(tower2):
    v = [1, 1, 1]
    pts = list(tower2.subfield[1:])
    rows = alternant_parity(tower2, v, pts, 1)
    assert rows == [v]
    rows = alternant_parity(tower2, v, pts, 3)
    for i in range(1, 3):
        for j, p in enumerate(pts):
            assert rows[i][j] == tower2.mul(rows[i - 1][j], p)


def test_extended_parity_infinity_column(tower2):
    pts = projective_support(tower2)
    v = [1] * len(pts)
    rows = alternant_parity(tower2, v, pts, 7)
    col = [row[-1] for row in rows]
    assert col == [0] * 6 + [v[-1]]
    # dropping the infinity column and last row recovers the plain rows
    plain = alternant_parity(tower2, v[:-1], pts[:-1], 6)
    assert [row[:-1] for row in rows[:-1]] == plain


def test_projective_parity_allows_interior_infinity(tower2):
    pts = projective_support(tower2)
    moved = [pts[-1]] + pts[:-1]
    v = [1] * len(moved)
    rows = alternant_parity(tower2, v, moved, 7)
    assert [row[0] for row in rows] == [0] * 6 + [1]


def test_subfield_subcode_of_zero_matrix(tower2):
    code = subfield_subcode([0, 0, 0, 0])
    assert code.dimension == 4  # no constraints -> the full space


def test_goppa_parity_entries_distinct(tower5):
    ctx = tower5
    alpha = random_degree_six(ctx, random.Random(0))
    g = ctx.minimal_polynomial(alpha)
    cols = goppa_parity(ctx, g, list(ctx.subfield))
    assert all(cols)
    assert len(set(cols)) == len(cols)
    # entry k of a's column is a^k / g(a), checked in the big field
    for a, col in zip(ctx.subfield, cols):
        ga = eval_poly(ctx, g, a)
        for k in range(6):
            entry = ctx.embed_base((col >> (k * ctx.n)) & ((1 << ctx.n) - 1))
            assert ctx.mul(entry, ga) == power(ctx, a, k)
        assert col >> (6 * ctx.n) == 0
    quadratic = next(x for x in fixed_field_basis(ctx, 2 * ctx.n)
                     if len(ctx.conjugates(x)) == 2)
    for bad in (1, ctx.embed_base(3), quadratic):
        with pytest.raises(ValueError, match="degree 6"):
            goppa_parity(ctx, ctx.minimal_polynomial(bad), list(ctx.subfield))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 11])
def test_goppa_parity_refuses_a_coefficient_outside_the_base_field(n):
    """A hand-made g of 7 coefficients, one of them x (degree 6n over
    GF(2), so outside GF(q)), is refused for that coefficient, whichever it
    is, and not for a support point."""
    ctx = make_tower(n)
    g = ctx.minimal_polynomial(random_degree_six(ctx, random.Random(n)))
    for k in range(7):
        bad = g[:k] + (2,) + g[k + 1:]
        with pytest.raises(ValueError, match="not in the embedded base field"):
            goppa_parity(ctx, bad, [*ctx.subfield, infinity(ctx)])


def test_goppa_parity_is_zero_at_infinity(tower5):
    alpha = random_degree_six(tower5, random.Random(0))
    g = tower5.minimal_polynomial(alpha)
    finite = goppa_parity(tower5, g, list(tower5.subfield))
    pts = projective_support(tower5)
    assert goppa_parity(tower5, g, pts) == finite + [0]
    assert goppa_parity(tower5, g, [pts[-1]] + pts[:-1]) == [0] + finite


# --------------------------------------------------------- code constructions


@pytest.mark.parametrize("seed", [1, 2])
def test_goppa_equals_alternant(tower2, tower5, seed):
    for ctx in (tower2, tower5):
        alpha = random_degree_six(ctx, random.Random(seed))
        support = list(ctx.subfield)
        g = ctx.minimal_polynomial(alpha)
        direct = subfield_subcode(goppa_parity(ctx, g, support))
        via_alt = subfield_subcode(stacked_columns(
            ctx, alternant_parity(ctx, multipliers(ctx, g, support), support, 6)))
        assert direct == via_alt


def test_goppa_dimension_lower_bound(tower5):
    alpha = random_degree_six(tower5, random.Random(3))
    code = goppa_code(tower5, tower5.minimal_polynomial(alpha))
    assert code.length == 32
    assert code.dimension >= 32 - 30


def test_extension_matches_extended_alternant(tower2, tower5):
    for ctx, seed in ((tower2, 4), (tower5, 5)):
        alpha = random_degree_six(ctx, random.Random(seed))
        g = ctx.minimal_polynomial(alpha)
        ext = extend_code(goppa_code(ctx, g))
        pts = projective_support(ctx)
        via_alt = subfield_subcode(stacked_columns(
            ctx, alternant_parity(ctx, multipliers(ctx, g, pts), pts, 7)))
        assert ext == via_alt
        assert ext.dimension == goppa_code(ctx, g).dimension
        assert ext.length == len(pts)
        assert (parity_basis(extended_parity(ctx, g)) == parity_by_nullspace(ext)
                == extended_parity_by_ones_row(goppa_code(ctx, g)))


def test_extended_codewords_have_even_weight(tower5):
    alpha = random_degree_six(tower5, random.Random(6))
    ext = extended_goppa_code(tower5, tower5.minimal_polynomial(alpha))
    counts = weight_enumerator(ext)
    assert all(c == 0 for w, c in enumerate(counts) if w % 2 == 1)
    assert ext.dimension >= (1 << 5) + 1 - 30 - 1


@st.composite
def goppa_cases(draw):
    """(ctx, alpha, support, extended): n in 2, 3, 4, 5, 7; the projective
    support for an extended code and GF(q) for a plain one, in canonical
    order, moved by a random map (infinity dropped for a plain code), or
    rotated."""
    n = draw(st.sampled_from((2, 3, 4, 5, 7)))
    ctx, support = tower_and_support(n)
    rng = random.Random(draw(st.integers(0, (1 << 32) - 1)))
    alpha = random_degree_six(ctx, rng)
    extended = draw(st.booleans())
    pts = support if extended else support[:-1]
    order = draw(st.sampled_from(("canonical", "moved", "rotated")))
    if order == "moved":
        moved = [support[p] for p in induced_permutation(ctx, random_map(ctx, rng), support)]
        pts = moved if extended else [p for p in moved if p != support[-1]]
    elif order == "rotated":
        k = draw(st.integers(0, len(pts) - 1))
        pts = pts[k:] + pts[:k]
    return ctx, alpha, pts, extended


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=goppa_cases())
def test_parity_on_the_logs_gives_the_inversion_and_alternant_codes(case):
    """The code from the GF(q) columns a^k / g(a) equals the code from the
    big-field row 1/(alpha - a) and the alternant code of g, rows
    a^i / g(a) for i < 6, or i < 7 with infinity for the extended code."""
    ctx, alpha, pts, extended = case
    g = ctx.minimal_polynomial(alpha)
    rows = 7 if extended else 6
    by_alternant = subfield_subcode(stacked_columns(
        ctx, alternant_parity(ctx, multipliers(ctx, g, pts), pts, rows)))
    if extended:
        ones = 1 << ctx.big_degree
        by_inversion = subfield_subcode([c | ones for c in inversion_columns(ctx, alpha, pts)])
        code = extended_goppa_code(ctx, g, pts)
    else:
        by_inversion = subfield_subcode(inversion_columns(ctx, alpha, pts))
        code = subfield_subcode(goppa_parity(ctx, g, pts))
        if pts == list(ctx.subfield):
            assert goppa_code(ctx, g) == code
    assert code == by_inversion == by_alternant


# ------------------------------------------------------------ transformations


def test_transform_identity_map(tower5):
    alpha = random_degree_six(tower5, random.Random(7))
    g = tower5.minimal_polynomial(alpha)
    assert transform_polynomial(tower5, g, make_map(tower5, 1, 0, 0, 1)) == g


def test_transform_root_mapping(tower5):
    rng = random.Random(8)
    for _ in range(10):
        alpha = random_degree_six(tower5, rng)
        g = tower5.minimal_polynomial(alpha)
        m = random_map(tower5, rng)
        h = transform_polynomial(tower5, g, m)
        beta = apply_map(tower5, m, alpha)
        assert eval_poly(tower5, h, beta) == 0
        assert len(h) == 7 and h[-1] != 0
        # monic normalization recovers the minimal polynomial of beta
        lead_inv = tower5.inv(h[-1])
        monic = tuple(tower5.mul(lead_inv, c) for c in h)
        assert monic == tower5.minimal_polynomial(beta)


def test_transform_frobenius_only_conjugates_coefficients(tower5):
    alpha = random_degree_six(tower5, random.Random(9))
    g = tower5.minimal_polynomial(alpha)
    m = make_map(tower5, 1, 0, 0, 1, 4)
    h = transform_polynomial(tower5, g, m)
    assert h == tuple(tower5.frobenius(c, 4) for c in g)


def test_transform_pole_precondition(tower5):
    # degree-1 polynomial vanishing exactly at the substitution pole d/c
    c = tower5.embed_base(3)
    d = tower5.embed_base(5)
    pole = tower5.mul(d, tower5.inv(c))
    g = (pole, 1)  # x + pole
    m = make_map(tower5, 1, 1, c, d, 0)
    with pytest.raises(ValueError):
        transform_polynomial(tower5, g, m)


def test_induced_permutation(tower5):
    pts = projective_support(tower5)
    ident = make_map(tower5, 1, 0, 0, 1)
    assert induced_permutation(tower5, ident, pts) == tuple(range(33))
    shift = make_map(tower5, 1, 1, 0, 1, 0)  # x -> x + 1
    perm = induced_permutation(tower5, shift, pts)
    fixed = [j for j, p in enumerate(perm) if p == j]
    assert fixed == [32]  # only infinity stays put
    rng = random.Random(10)
    for _ in range(100):
        perm = induced_permutation(tower5, random_map(tower5, rng), pts)
        assert sorted(perm) == list(range(33))


@functools.cache
def tower_and_support(n):
    ctx = make_tower(n)
    return ctx, projective_support(ctx)


# entries forced to zero: none, c (affine), a, b, d, and b and c (diagonal);
# b = d = 0 together would make the matrix singular
ZEROED = ((), ("c",), ("a",), ("b",), ("d",), ("b", "c"))


@st.composite
def semilinear_maps(draw):
    """(n, map) with n in 2..7: entries drawn as base encodings, some forced
    to zero, and a Frobenius power that is a multiple of n, or any residue
    mod n, anywhere in 0..6n - 1."""
    n = draw(st.integers(2, 7))
    ctx, _ = tower_and_support(n)
    q = 1 << n
    zeroed = draw(st.sampled_from(ZEROED))
    entries = {e: 0 if e in zeroed else draw(st.integers(1, q - 1)) for e in "abcd"}
    a, b, c, d = (ctx.embed_base(entries[e]) for e in "abcd")
    assume(ctx.mul(a, d) ^ ctx.mul(b, c))
    frob = draw(st.one_of(st.integers(0, 5).map(lambda j: j * n),
                          st.integers(0, 6 * n - 1)))
    return n, make_map(ctx, a, b, c, d, frob)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=semilinear_maps())
def test_induced_permutation_matches_the_big_field_oracle(case):
    """The log-table permutation equals the one `apply_map` gives point by point."""
    n, m = case
    ctx, support = tower_and_support(n)
    assert (induced_permutation(ctx, m, support)
            == induced_permutation_by_apply_map(ctx, m, support))


@pytest.mark.parametrize("n", range(2, 8))
def test_induced_permutation_edge_maps_match_the_oracle(n):
    """Every zero pattern of ZEROED, with the Frobenius powers 0, n and 5n
    (the identity on GF(2^n)) and 1, n + 1 and 6n - 1 (nonzero residues)."""
    ctx, support = tower_and_support(n)
    rng = random.Random(n)
    for zeroed in ZEROED:
        for frob in (0, n, 5 * n, 1, n + 1, 6 * n - 1):
            while True:
                a, b, c, d = (0 if e in zeroed else ctx.embed_base(rng.randrange(1, 1 << n))
                              for e in "abcd")
                if ctx.mul(a, d) ^ ctx.mul(b, c):
                    break
            m = make_map(ctx, a, b, c, d, frob)
            assert (induced_permutation(ctx, m, support)
                    == induced_permutation_by_apply_map(ctx, m, support)), (zeroed, frob)


def test_induced_permutation_rejects_points_outside_the_support_field(tower5):
    outside = random_degree_six(tower5, random.Random(16))
    m = make_map(tower5, 1, 1, 0, 1, 3)
    for support in (projective_support(tower5) + [outside], [outside, 0]):
        with pytest.raises(ValueError, match="does not preserve the support set"):
            induced_permutation(tower5, m, support)


def test_equivalence_identity(tower5):
    alpha = random_degree_six(tower5, random.Random(11))
    rep = check_extended_equivalence(tower5, alpha, make_map(tower5, 1, 0, 0, 1))
    assert rep.beta == alpha
    assert rep.verified
    assert rep.permutation == tuple(range(33))


def test_equivalence_random_maps(tower5):
    rng = random.Random(12)
    for _ in range(5):
        alpha = random_degree_six(tower5, rng)
        m = random_map(tower5, rng)
        rep = check_extended_equivalence(tower5, alpha, m)
        assert rep.verified
        assert rep.weights_alpha == rep.weights_beta


def test_equivalence_under_a_wrong_permutation_is_not_verified(tower5, monkeypatch):
    """The verdict compares the two reduced generators: beta's code on a
    support moved by a permutation other than the map's is another code."""
    inner = codes.induced_permutation

    def rotated(ctx, m, support):
        perm = inner(ctx, m, support)
        return perm[1:] + perm[:1]

    monkeypatch.setattr(codes, "induced_permutation", rotated)
    rng = random.Random(12)
    rep = check_extended_equivalence(tower5, random_degree_six(tower5, rng),
                                     random_map(tower5, rng))
    assert not rep.verified
    assert rep.weights_alpha == rep.weights_beta  # permuted codes, equal weights


# ----------------------------------------------------------------- enumerator


def test_weight_enumerator_zero_code():
    zero = BinaryCode(5, ())
    assert weight_enumerator(zero) == (1, 0, 0, 0, 0, 0)


def test_weight_enumerator_budget():
    full = BinaryCode(25, rref([1 << j for j in range(25)]))
    with pytest.raises(ValueError):
        weight_enumerator(full)


def test_weight_enumerator_permutation_invariant(tower5):
    alpha = random_degree_six(tower5, random.Random(13))
    code = extended_goppa_code(tower5, tower5.minimal_polynomial(alpha))
    base = weight_enumerator(code)
    perm = list(range(code.length))
    random.Random(14).shuffle(perm)
    assert weight_enumerator(code_from_generator(
        permuted_rows(code.generator, perm), code.length)) == base


def test_code_json_schema(tower5):
    alpha = random_degree_six(tower5, random.Random(15))
    g = tower5.minimal_polynomial(alpha)
    obj = code_to_json(tower5, alpha, g, extended_parity(tower5, g))
    obj["extended"] = True
    schema.validate("code", obj)
    assert len(obj["alpha_hex"]) == 8
    assert len(obj["g_coeffs"]) == 7
    assert sum(obj["weight_enumerator"]) == 1 << obj["dimension"]


# below n = 5 every extended code is {0}, so equality there shows nothing
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, (1 << 32) - 1))
def test_extended_code_on_moved_support_is_the_permuted_code(tower5, seed):
    ctx = tower5
    rng = random.Random(seed)
    alpha = random_degree_six(ctx, rng)
    m = random_map(ctx, rng)
    g = ctx.minimal_polynomial(alpha)
    assert extended_goppa_code(ctx, g) == extend_code(goppa_code(ctx, g))
    beta = apply_map(ctx, m, alpha)
    support = projective_support(ctx)
    perm = induced_permutation(ctx, m, support)
    h = ctx.minimal_polynomial(beta)
    natural = extend_code(goppa_code(ctx, h))
    moved = extended_goppa_code(ctx, h, [support[p] for p in perm])
    assert moved == code_from_generator(permuted_rows(natural.generator, perm), len(perm))
