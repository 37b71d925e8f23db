"""Goppa and extended code construction over the tower, as binary codes.

Binary matrices are lists of int bitmasks (bit j = column j), the usual
GF(2) idiom: row reduction is XOR, parity checks are popcounts. Codes are
stored with both a generator and a parity basis in reduced row echelon form,
so code equality is structural equality of the canonical generator rows.
A subfield subcode is the kernel of its binary parity columns, which
`_ColumnSolver` hands back already reduced: that kernel is the generator as
it stands, and one `nullspace` and one `rref` give the parity basis.

A code is built from g, the sextic minimal polynomial of alpha over GF(q),
q = 2^n, in GF(q): each finite parity column holds a^k / g(a), k < 6, read
off the discrete logs of `Tower.base_logs`, so a code costs no product or
inverse in the big field. It is the binary code of the single row
1/(alpha - a) over GF(q^6), the route the tests keep as an oracle.

An extended code is one subfield subcode over a projective support in any
order, so the equivalence check builds both codes and compares them. A
map's support permutation is computed in GF(2^n), on the discrete logs of
`Tower.base_logs`, because every support point and map entry lies there;
`apply_map`, with its big-field products and inverse, maps alpha to beta
only. The alternant route to the same codes, through the transformed
polynomial of the paper, is a test oracle in `tests/conftest.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2tower import Tower, _ColumnSolver
from .mobius import SemiLinearMap, apply_map, infinity

__all__ = [
    "BinaryCode",
    "rref",
    "nullspace",
    "goppa_parity",
    "subfield_subcode",
    "extend_code",
    "goppa_code",
    "extended_goppa_code",
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


# ------------------------------------------------------------- parity builders


def goppa_parity(ctx: Tower, g: tuple[int, ...], support: list[int]) -> list[int]:
    """The parity columns of the Goppa code of g over a projective support.

    g is the sextic minimal polynomial over GF(q), q = 2^n, of a degree-6
    alpha (`Tower.minimal_polynomial`); a finite column holds the base
    encodings of a^k / g(a), k = 0..5, at bits kn..kn + n - 1, and the
    column at infinity, at any position, is 0. Each entry is a log sum on
    `Tower.base_logs`: no product or inverse in the big field. Over GF(2)
    this cuts out the code of the single row 1/(alpha - a), because
    sum c_a / (x - a) = 0 mod g iff sum c_a a^k / g(a) = 0 for k < 6.
    Raises ValueError unless g is a sextic over GF(q) without a root in
    the support.
    """
    if len(g) != 7:
        raise ValueError("alpha must have degree 6 over the base field")
    n = ctx.n
    q1 = (1 << n) - 1
    logs = ctx.base_logs()
    exp, log, base_log = logs.exp, logs.log, logs.base_log
    coeffs = [ctx.to_base(c) for c in g]
    terms = [(k, base_log[c]) for k, c in enumerate(coeffs) if c]
    inf = infinity(ctx)
    cols = []
    try:
        for a in support:
            if a == inf:
                cols.append(0)
                continue
            if a == 0:  # g(0) = g_0, and a^k = 0 for k > 0
                ga, la, top = coeffs[0], 0, n
            else:
                ga, la, top = 0, log[a], 6 * n
                for k, lc in terms:
                    ga ^= exp[(lc + k * la) % q1]
            if ga == 0:
                raise ValueError("g has a root in the support")
            e = -base_log[ga]  # log of a^k / g(a), from k = 0 on
            col = 0
            for shift in range(0, top, n):
                col |= exp[e % q1] << shift
                e += la
            cols.append(col)
    except KeyError as exc:
        raise ValueError("support point outside GF(2^n) u {inf}") from exc
    return cols


def subfield_subcode(columns: list[int]) -> BinaryCode:
    """The binary code cut out by parity columns, each the GF(2)
    coordinates of a column of a parity matrix over an extension field: the
    kernel of the columns."""
    length = len(columns)
    gen = _ColumnSolver(columns).kernel_basis  # already reduced
    return BinaryCode(length, gen, rref(list(nullspace(gen, length))))


def extend_code(code: BinaryCode) -> BinaryCode:
    """Append an overall parity bit to every codeword: the reduced generator
    stays reduced, and the parity checks gain the all-ones row."""
    n = code.length
    gen = tuple(r | ((r.bit_count() & 1) << n) for r in code.generator)
    return BinaryCode(n + 1, gen, rref([*code.parity, (1 << (n + 1)) - 1]))


# --------------------------------------------------------------- Goppa codes


def goppa_code(ctx: Tower, g: tuple[int, ...]) -> BinaryCode:
    """The binary Goppa code of g on the canonical full support GF(q)."""
    return subfield_subcode(goppa_parity(ctx, g, list(ctx.subfield)))


def extended_goppa_code(ctx: Tower, g: tuple[int, ...],
                        support: list[int] | None = None) -> BinaryCode:
    """The extended code of g over a projective support (by default the
    subfield, then infinity): the parity columns of `goppa_parity`, 0 at
    infinity, under the all-ones row."""
    if support is None:
        support = [*ctx.subfield, infinity(ctx)]
    ones = 1 << ctx.big_degree
    return subfield_subcode([col | ones for col in goppa_parity(ctx, g, support)])


def induced_permutation(ctx: Tower, m: SemiLinearMap,
                        support: list[int]) -> tuple[int, ...]:
    """perm[j] = position in the support of the map image of support[j].

    Every support point and every map entry lies in GF(q) u {inf},
    q = 2^n, so the images are computed on discrete logs of GF(q)*
    (`Tower.base_logs`), with no product or inverse in the big field. On
    GF(q), sigma^frob is sigma^(frob mod n), which multiplies a log by
    2^(frob mod n) modulo q - 1: it rotates the log's n bits. a*s and c*s
    are log sums, and the quotient is a log difference. As in `apply_map`,
    a zero denominator gives infinity, and infinity goes to a/c (infinity
    when c = 0). Raises ValueError when a support point lies outside
    GF(q) u {inf} or an image outside the support.
    """
    n = ctx.n
    q1 = (1 << n) - 1
    logs = ctx.base_logs()
    exp, log = logs.embedded, logs.log
    inf = infinity(ctx)
    k = m.frob % n

    def quotient(num: int, den: int) -> int:
        if den == 0:
            return inf
        return exp[(log[num] - log[den]) % q1] if num else 0

    def times(e: int, ls: int) -> int:  # e * s, with ls = log s
        return exp[(log[e] + ls) % q1] if e else 0

    position = {pt: j for j, pt in enumerate(support)}
    try:
        images = []
        for pt in support:
            if pt == inf:
                images.append(quotient(m.a, m.c))
            elif pt == 0:
                images.append(quotient(m.b, m.d))
            else:
                ls = log[pt]
                ls = ((ls << k) | (ls >> (n - k))) & q1
                images.append(quotient(times(m.a, ls) ^ m.b, times(m.c, ls) ^ m.d))
        perm = tuple(position[img] for img in images)
    except KeyError as exc:
        raise ValueError("map does not preserve the support set") from exc
    return perm


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

    The code of beta is built on the moved support (the map image of alpha's
    support, point by point), and the verdict is equality of the two codes.
    A False verified flag would falsify the equivalence property this
    package is built around; it is reported rather than raised so callers
    can surface it loudly. Weight enumerators are computed only up to
    WEIGHT_ENUM_MAX_DIM and are None above it.
    """
    beta = apply_map(ctx, m, alpha)
    support = [*ctx.subfield, infinity(ctx)]
    perm = induced_permutation(ctx, m, support)
    code_a = extended_goppa_code(ctx, ctx.minimal_polynomial(alpha), support)
    code_b = extended_goppa_code(ctx, ctx.minimal_polynomial(beta),
                                 [support[p] for p in perm])
    enumerate_weights = code_a.dimension <= WEIGHT_ENUM_MAX_DIM
    return EquivalenceReport(
        alpha=alpha,
        beta=beta,
        map=m,
        permutation=perm,
        verified=code_a == code_b,
        weights_alpha=weight_enumerator(code_a) if enumerate_weights else None,
        weights_beta=weight_enumerator(code_b) if enumerate_weights else None,
    )


# -------------------------------------------------------------------- export


def code_to_json(ctx: Tower, alpha: int, g: tuple[int, ...], code: BinaryCode) -> dict:
    """The `code` report of alpha's code, with g, the minimal polynomial the
    parity was built from."""
    row_width = -(-code.length // 4)
    enum = None
    if code.dimension <= WEIGHT_ENUM_MAX_DIM:
        enum = list(weight_enumerator(code))
    return {
        "n": ctx.n,
        "alpha_hex": ctx.to_hex(alpha),
        "g_coeffs": [ctx.to_hex(c) for c in g],
        "length": code.length,
        "dimension": code.dimension,
        "generator_rows": [format(r, f"0{row_width}x") for r in code.generator],
        "parity_rows": [format(r, f"0{row_width}x") for r in code.parity],
        "weight_enumerator": enum,
    }
