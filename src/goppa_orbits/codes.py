"""Goppa, alternant and extended code construction over the tower, as binary codes.

Binary matrices are lists of int bitmasks (bit j = column j), the usual
GF(2) idiom: row reduction is XOR, parity checks are popcounts. Codes are
stored with both a generator and a parity basis in reduced row echelon form,
so code equality is structural equality of the canonical generator rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2tower import Tower, _ColumnSolver
from .mobius import SemiLinearMap, apply_map, infinity

__all__ = [
    "BinaryCode",
    "GoppaInstance",
    "rref",
    "nullspace",
    "code_from_generator",
    "eval_at_point",
    "alternant_parity",
    "goppa_parity",
    "subfield_subcode",
    "extend_code",
    "goppa_instance",
    "goppa_code",
    "extended_goppa_code",
    "transform_polynomial",
    "induced_permutation",
    "check_extended_equivalence",
    "weight_enumerator",
    "code_to_json",
    "EquivalenceReport",
]

WEIGHT_ENUM_MAX_DIM = 24


# ---------------------------------------------------------------- GF(2) rows


def rref(rows: list[int]) -> tuple[int, ...]:
    """Reduced row echelon form of int-bitmask rows, pivots at least set bits."""
    return _ColumnSolver(rows).rref()


def nullspace(rows: list[int], width: int) -> tuple[int, ...]:
    """Basis of {x : popcount(r & x) is even for every row r}."""
    reduced = rref(rows)
    pivots = [(r & -r).bit_length() - 1 for r in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, p in zip(reduced, pivots):
            if (r >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return tuple(basis)


@dataclass(frozen=True)
class BinaryCode:
    """Binary linear code with canonical (RREF) generator and parity bases."""

    length: int
    generator: tuple[int, ...]
    parity: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.generator)

    def __post_init__(self):
        for g in self.generator:
            for h in self.parity:
                if (g & h).bit_count() & 1:
                    raise AssertionError("generator not orthogonal to parity rows")
        if len(self.generator) + len(self.parity) != self.length:
            raise AssertionError("rank defect in code bases")

    def contains(self, word: int) -> bool:
        return all((word & h).bit_count() % 2 == 0 for h in self.parity)


def code_from_generator(gen_rows: list[int], length: int) -> BinaryCode:
    gen = rref(gen_rows)
    return BinaryCode(length, gen, rref(list(nullspace(gen, length))))


# ------------------------------------------------------------- parity builders


def alternant_parity(ctx: Tower, v: list[int], support: list[int],
                     r: int) -> list[list[int]]:
    """The r x m big-field matrix with rows v_j * a_j^i, i = 0..r-1, over a
    projective support: the infinity column, at any position, is zero except
    for v_j in the last row."""
    if len(v) != len(support):
        raise ValueError("multiplier and support lengths differ")
    if any(x == 0 for x in v):
        raise ValueError("multiplier entries must be nonzero")
    if len(set(support)) != len(support):
        raise ValueError("support points must be distinct")
    if r < 1:
        raise ValueError("need at least one parity row")
    inf = infinity(ctx)
    rows = [[0] * len(support) for _ in range(r)]
    for j, (vj, pt) in enumerate(zip(v, support)):
        if pt == inf:
            rows[r - 1][j] = vj
        else:
            acc = vj
            for i in range(r):
                rows[i][j] = acc
                acc = ctx.mul(acc, pt)
    return rows


def goppa_parity(ctx: Tower, alpha: int, support: list[int]) -> list[list[int]]:
    """The single-row parity 1/(alpha - a_j) defining the code of alpha."""
    if not ctx.is_degree_six(alpha):
        raise ValueError("alpha must have degree 6 over the base field")
    return [ctx.inv_batch([alpha ^ aj for aj in support])]


def subfield_subcode(ctx: Tower, parity_rows: list[list[int]], length: int) -> BinaryCode:
    """Binary code cut out by a big-field parity matrix: the kernel of its
    columns, each the bits of its entries stacked 6n bits apart."""
    m = ctx.big_degree
    cols = [sum(row[j] << (i * m) for i, row in enumerate(parity_rows))
            for j in range(length)]
    return code_from_generator(list(_ColumnSolver(cols).kernel_basis), length)


def extend_code(code: BinaryCode) -> BinaryCode:
    """Append an overall parity bit to every codeword: the reduced generator
    stays reduced, and the parity checks gain the all-ones row."""
    n = code.length
    gen = tuple(r | ((r.bit_count() & 1) << n) for r in code.generator)
    return BinaryCode(n + 1, gen, rref([*code.parity, (1 << (n + 1)) - 1]))


# --------------------------------------------------------------- Goppa codes


@dataclass(frozen=True)
class GoppaInstance:
    """A degree-6 element, its minimal polynomial, and the canonical support."""

    alpha: int
    g: tuple[int, ...]
    support: tuple[int, ...]


def goppa_instance(ctx: Tower, alpha: int) -> GoppaInstance:
    if not ctx.is_degree_six(alpha):
        raise ValueError("alpha must have degree 6 over the base field")
    g = ctx.minimal_polynomial(alpha)
    return GoppaInstance(alpha=alpha, g=g, support=tuple(ctx.subfield))


def eval_at_point(ctx: Tower, coeffs: tuple[int, ...], pt: int) -> int:
    """Evaluate at a projective point; the value at infinity is the leading coefficient."""
    if pt == infinity(ctx):
        return coeffs[-1]
    return ctx.eval_poly(coeffs, pt)


def goppa_code(ctx: Tower, alpha: int) -> BinaryCode:
    """The binary code of alpha on the canonical full support."""
    support = list(ctx.subfield)
    return subfield_subcode(ctx, goppa_parity(ctx, alpha, support), len(support))


def extended_goppa_code(ctx: Tower, alpha: int) -> BinaryCode:
    return extend_code(goppa_code(ctx, alpha))


# ----------------------------------------------------------- transformations


def transform_polynomial(ctx: Tower, g: tuple[int, ...],
                         m: SemiLinearMap) -> tuple[int, ...]:
    """Image of g under the semi-linear substitution.

    With tg the coefficient-wise Frobenius image of g and r its degree, the
    result is sum_k tg_k (d x + b)^k (c x + a)^(r - k), whose roots are the
    map images of the roots of g. Requires tg(d/c) nonzero when c is nonzero
    (signs collapse in characteristic 2).
    """
    r = len(g) - 1
    if r < 1 or g[-1] == 0:
        raise ValueError("polynomial must have positive degree")
    tg = [ctx.frobenius(ck, m.frob) for ck in g]
    if m.c and ctx.eval_poly(tg, ctx.mul(m.d, ctx.inv(m.c))) == 0:
        raise ValueError("substitution pole coincides with a root of the polynomial")

    def pmul(p: list[int], q: list[int]) -> list[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    out[i + j] ^= ctx.mul(pi, qj)
        return out

    acc = [0] * (r + 1)
    for k, tgk in enumerate(tg):
        if tgk == 0:
            continue
        term = [1]
        for _ in range(k):
            term = pmul(term, [m.b, m.d])
        for _ in range(r - k):
            term = pmul(term, [m.a, m.c])
        for i, t in enumerate(term):
            acc[i] ^= ctx.mul(tgk, t)
    if acc[-1] == 0:
        raise AssertionError("transformed polynomial dropped degree")
    return tuple(acc)


def induced_permutation(ctx: Tower, m: SemiLinearMap,
                        support: list[int]) -> tuple[int, ...]:
    """perm[j] = position in the support of the map image of support[j]."""
    position = {pt: j for j, pt in enumerate(support)}
    try:
        perm = tuple(position[apply_map(ctx, m, pt)] for pt in support)
    except KeyError as exc:
        raise ValueError("map does not preserve the support set") from exc
    return perm


def permute_columns(rows: tuple[int, ...], perm: tuple[int, ...]) -> list[int]:
    """Rows of y with y_j = x_perm[j] for each row x."""
    width = len(perm)
    out = []
    for x in rows:
        bits = format(x, f"0{width}b")[::-1]  # bits[j] = bit j of x
        out.append(int("".join(bits[pj] for pj in reversed(perm)) or "0", 2))
    return out


def weight_enumerator(code: BinaryCode) -> tuple[int, ...]:
    """Codeword counts by Hamming weight, by exhaustive span enumeration."""
    k = code.dimension
    if k > WEIGHT_ENUM_MAX_DIM:
        raise ValueError(
            f"dimension {k} exceeds the enumeration budget ({WEIGHT_ENUM_MAX_DIM})")
    counts = [0] * (code.length + 1)
    word = 0
    counts[0] = 1
    # Gray-code walk: flip one generator per step
    for step in range(1, 1 << k):
        word ^= code.generator[(step & -step).bit_length() - 1]
        counts[word.bit_count()] += 1
    return tuple(counts)


@dataclass(frozen=True)
class EquivalenceReport:
    alpha: int
    beta: int
    map: SemiLinearMap
    permutation: tuple[int, ...]
    verified: bool
    weights_alpha: tuple[int, ...] | None  # None above WEIGHT_ENUM_MAX_DIM
    weights_beta: tuple[int, ...] | None


def check_extended_equivalence(ctx: Tower, alpha: int,
                               m: SemiLinearMap) -> EquivalenceReport:
    """Verify that the extended codes of alpha and its map image are
    permutation equivalent under the induced support permutation.

    A False verified flag would falsify the equivalence property this
    package is built around; it is reported rather than raised so callers
    can surface it loudly. The verdict compares reduced generator matrices;
    weight enumerators are computed only up to WEIGHT_ENUM_MAX_DIM and are
    None above it.
    """
    beta = apply_map(ctx, m, alpha)
    support = list(ctx.subfield) + [infinity(ctx)]
    perm = induced_permutation(ctx, m, support)
    code_a = extended_goppa_code(ctx, alpha)
    code_b = extended_goppa_code(ctx, beta)
    permuted = rref(permute_columns(code_b.generator, perm))
    verified = permuted == code_a.generator
    enumerate_weights = code_a.dimension <= WEIGHT_ENUM_MAX_DIM
    return EquivalenceReport(
        alpha=alpha,
        beta=beta,
        map=m,
        permutation=perm,
        verified=verified,
        weights_alpha=weight_enumerator(code_a) if enumerate_weights else None,
        weights_beta=weight_enumerator(code_b) if enumerate_weights else None,
    )


# -------------------------------------------------------------------- export


def code_to_json(ctx: Tower, inst: GoppaInstance, code: BinaryCode) -> dict:
    row_width = -(-code.length // 4)
    enum = None
    if code.dimension <= WEIGHT_ENUM_MAX_DIM:
        enum = list(weight_enumerator(code))
    return {
        "n": ctx.n,
        "alpha_hex": ctx.to_hex(inst.alpha),
        "g_coeffs": [ctx.to_hex(c) for c in inst.g],
        "length": code.length,
        "dimension": code.dimension,
        "generator_rows": [format(r, f"0{row_width}x") for r in code.generator],
        "parity_rows": [format(r, f"0{row_width}x") for r in code.parity],
        "weight_enumerator": enum,
    }
