"""Exact arithmetic in the tower GF(2) < GF(2^n) < GF(2^(6n)).

Field elements are plain ints: bit j of enc(x) is the coefficient of x^j in
the polynomial basis of the field's modulus. 0 and 1 encode the field's zero
and one, and addition is the xor (^) operation. A Tower carries the moduli,
the subfield embedding and the Frobenius machinery; all operations are pure
functions of their inputs. A Tower's moduli never change after
construction; the subfield and its embedding (`_embedding`) and logs
(`base_logs`), the Frobenius columns and the numpy tables are built on
first read and then kept unchanged (two threads racing on a first read
build equal values), so a Tower can be shared freely between threads.
The module holds what the commands and the benchmark call; the
independent oracles the tests check it against (a schoolbook product,
subfield spans, enumerated root counts) live in `tests/conftest.py`.

The scalar kernel:

- `Tower.mul` is `gf2poly.mul` (the package's one carry-less product, a
  4-bit windowed product) followed by a byte-table reduction on one
  256-entry table, red[b] = (b << 6n) ^ ((b << 6n) mod modulus_big). It is
  read from the top byte of the product down: p ^= red[byte] << (sh - 6n)
  clears the byte at bit sh and folds it into the bits below sh, which the
  lower bytes then carry on (4 lookups at n = 5, 5 at n = 7).
  `Tower.square` is `gf2poly.square` (bit spreading) and the same
  reduction, at about half the cost of a `mul`.
- `Tower.inv` is `gf2poly.inverse`, the shift-and-add extended Euclid; a
  zero remainder means the modulus was not irreducible and raises instead
  of looping.
- `frobenius(x, i)` reduces i modulo 6n, does (i mod n) squarings, then
  floor(i / n) steps on the sigma^n columns: at most n - 1 squarings and 5
  column applications, and no new column table for a power used once.
- `_frob_cols(i)`, the columns of x -> x^(2^i), are the powers z^j of
  z = x^(2^i), built on first use and cached per i, sigma^n's included. z
  is chain[i], read off the squaring chain `__init__` kept, so a new i
  costs no squaring loop: its columns take 3n - 1 squarings,
  z^(2j) = (z^j)^2, and 3n - 1 products. `_powers` is the one power
  builder, also behind the subfield models and the embedding columns.
  `_frob_plus_id_cols` and `frob_tables` build on the columns, and
  `_apply_cols` is the one GF(2)-linear map application.
- The degree tests walk the orbit of x under sigma^n on the sigma^n
  columns: the degree over GF(2^n) is the first d with sigma^(dn)(x) = x,
  and a degree-6 test takes three steps. So
  `conjugates`, `is_degree_six`, `minimal_polynomial` and
  `mobius.random_degree_six` build no other Frobenius columns.
- `base_logs` is the tower's one table of GF(q)*, q = 2^n: the powers of
  the least generator (on base encodings, the package's one generator
  search), their embeddings, and the discrete log of each embedding, built
  on first read. The Goppa parity
  (`codes.goppa_parity`), support permutations
  (`codes.induced_permutation`) and `to_base` read it: x is in GF(q) iff
  it is 0 or has a log, so `to_base` is the one projection and membership
  test (`minimal_polynomial`); `mobius.make_map` reads the same lookup,
  and builds a map on the logs it finds.

Construction only validates the moduli: it builds the reduction table
every product reads and keeps the chain it checks, but no Frobenius
columns besides the identity's; `_frob_cols` reads the chain on first use.
The default moduli are the `gf2poly.lowest_irreducible` picks for the
degrees n and 6n (the tests check them against that search) for every
n <= 16 and each prime 17 <= n <= 127, which only the root counts reach:
one string of exponent lists, `_MODULI`, parsed on first use. One helper,
`_moduli`, resolves an omitted modulus to its default, for a tower and for
the key of a cached census (`counting._sweep`). A tower is served where
both its degrees are tabled (`_has_moduli`), so a composite n above 16 is
refused; `_check_n` holds the refusals of n, which the CLI also reads
before it parses a modulus. A table modulus passes exactly the checks a
given one does:
`gf2poly.is_irreducible` for modulus_base, and for modulus_big both Rabin
tests on the chain x^(2^i) mod modulus_big, i <= 6n, that the tower
squares on its own reduction table.

A subfield GF(2^d), d | 6n, has one model, `_trace_models(d)`: for each
draw z of random.Random(0).getrandbits(6n), the trace
w = z + sigma^d(z) + ... + sigma^(6n-d)(z), walked on the sigma^n
columns, lies in GF(2^d), and when the one relation among w^0..w^d (one
`_ColumnSolver`) has degree d it is the minimal polynomial m_w, so
y -> w maps K = GF(2)[y]/(m_w) onto GF(2^d); a trace in a proper subfield
is skipped. The embedding and the log tables of the coordinate kernel
(`scan._cubic_logs`) both start from such a model, of GF(2^n) and of GF(q^3).

The subfield and the embedding are built together on the first read of
`subfield`, `embed_base`, `to_base` or `base_logs`, so root counts and a
fixed-point count read off a cached sweep build neither. gamma, the
enc-least root of modulus_base in the big field, has two routes and one
check:

- A tower with the default moduli of 2 <= n <= 11, every n a command
  reads the embedding at, reads gamma from `_ROOTS`, one string of hex
  entries parsed on the first read of an embedding, beside `_MODULI`. The
  tests check each entry against the search.
- Any other tower searches (`_searched_root`): from the first model of
  GF(2^n), `gf2poly.field_root` finds the least root r of modulus_base in
  K by an ascending scan on n-bit integers, and gamma is the least of the
  image of r and its n - 1 squarings, whatever w is.
- Either gamma is checked (`_least_root_powers`): f(gamma) = 0 for
  f = modulus_base, read off gamma^0..gamma^n, the embedding's columns and
  one more power, and gamma is less than its other n - 1 conjugates, with
  gamma^(2^n) = gamma; as f is irreducible of degree n, that makes gamma
  its enc-least root. A failure raises AssertionError.

The embedding columns are gamma^0..gamma^(n-1). One doubling over them
lists the subfield and the span in embed order, span[a] = embed_base(a):
the record's two fields, and all the census reads of GF(q). The embedding
is also checked in O(n): its n columns are independent and fixed by
sigma^n.

The byte tables of GF(2)-linear maps (`_byte_tables`, below 64 bits),
of each Frobenius power (`frob_tables`) and their application
(`apply_tables`) import numpy on first use; the coordinate kernel and the
census scan that read them are the module `scan`.

Linear algebra over GF(2) has one elimination, `_ColumnSolver`: each input
and its combination of inputs is one int, reduced at its highest set bit.
Walking the inputs from last to first makes its kernel basis come out in
reduced row echelon form. That kernel gives the minimal polynomial of a
trace (`_trace_models`) and every binary code; `solve` inverts GF(2)-linear
maps; its `rref` (`codes.rref`) reduces rows alone, at least set bits.
`solve_affine_linearized` hands back the solutions of a linearized equation
as a coset, a particular solution and a kernel basis, so a root count is a
rank and never a list of roots.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from typing import TYPE_CHECKING, NamedTuple

from . import gf2poly

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

__all__ = [
    "Tower",
    "make_tower",
    "solve_affine_linearized",
]

_MAX_N = 127  # the last n with default moduli
_MODULI_SCOPE = ("default moduli are tabled for every n <= 16 and for "
                 f"the primes 17 <= n <= {_MAX_N} only")

# the default moduli: gf2poly.lowest_irreducible(d), the fewest-terms,
# least-value irreducible, for each degree a tower asks for, d = n and d = 6n
# with 2 <= n <= 16 or n a prime up to 127; one string of exponent lists,
# each headed by its degree, ascending, parsed on the first tower
# (`_default_moduli`), since a dict literal of 79 tuples would add to the
# compile time of every command. tests/test_gf2tower.py checks every entry
# against that search, and the constructor checks each one it reads
_MODULI = (
    "2,1,0 3,1,0 4,1,0 5,2,0 6,1,0 7,1,0 8,4,3,1,0 9,1,0 10,3,0 11,2,0 12,3,0 "
    "13,4,3,1,0 14,5,0 15,1,0 16,5,3,1,0 17,3,0 18,3,0 19,5,2,1,0 23,5,0 "
    "24,4,3,1,0 29,2,0 30,1,0 31,3,0 36,9,0 37,6,4,1,0 41,3,0 42,7,0 43,6,4,3,0 "
    "47,5,0 48,5,3,2,0 53,6,2,1,0 54,9,0 59,7,4,2,0 60,1,0 61,5,2,1,0 66,3,0 "
    "67,5,2,1,0 71,6,0 72,10,9,3,0 73,25,0 78,6,5,3,0 79,9,0 83,7,4,2,0 84,5,0 "
    "89,38,0 90,27,0 96,10,9,6,0 97,6,0 101,7,6,1,0 102,29,0 103,9,0 107,9,7,4,0 "
    "109,5,4,2,0 113,9,0 114,5,3,2,0 127,1,0 138,8,7,1,0 174,13,0 186,11,0 "
    "222,5,4,2,0 246,11,2,1,0 258,71,0 282,35,0 318,45,0 354,99,0 366,29,0 "
    "402,171,0 426,63,0 438,65,0 474,191,0 498,155,0 534,161,0 582,85,0 606,165,0 "
    "618,295,0 642,119,0 654,33,0 678,15,5,3,0 762,83,0"
)

# gamma, the enc-least root of modulus_base in the big field, of the default
# tower of each n a command reads the embedding at, 2 <= n <= 11 (`code` and
# `equiv` to cli.MAX_CODE_N, `census` to 7), as "n:hex" entries parsed on the
# first read of an embedding (`_default_roots`). tests/test_gf2tower.py
# checks every entry against the search, and `Tower._embedding` checks each
# one it reads
_ROOTS = (
    "2:48 3:248 4:b781c4 5:f7c795f 6:208009 7:1102400a12 8:293ef1396c8c "
    "9:48209248208 10:18da17e7f5318cf 11:8000040209009"
)


@functools.cache
def _default_moduli() -> dict[int, tuple[int, ...]]:
    """`_MODULI` as exponent tuples keyed by degree."""
    rows = (tuple(map(int, entry.split(","))) for entry in _MODULI.split())
    return {exps[0]: exps for exps in rows}


@functools.cache
def _default_roots() -> dict[int, int]:
    """`_ROOTS` as gamma keyed by n."""
    rows = (entry.split(":") for entry in _ROOTS.split())
    return {int(n): int(gamma, 16) for n, gamma in rows}


def _has_moduli(n: int) -> bool:
    """Whether n is within the reach of the default moduli: degrees n and 6n
    are both tabled (n < 2 passes, for the constructor to refuse first)."""
    return n < 2 or {n, 6 * n} <= _default_moduli().keys()


def _check_n(n: int) -> None:
    """Refuse, with the one message for each, an n no tower is built for:
    ValueError below 2 or outside the default moduli's reach."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not _has_moduli(n):
        raise ValueError(f"n={n} is outside the construction cap: the {_MODULI_SCOPE}")


def _moduli(n: int, modulus_base: int | None = None,
            modulus_big: int | None = None) -> tuple[int, int]:
    """(modulus_base, modulus_big) of the tower of n, for an n `_check_n`
    passes: each one given, else the default of its degree, n or 6n. The
    one resolution of the defaults; it checks nothing else."""
    defaults = _default_moduli()
    if modulus_base is None:
        modulus_base = gf2poly.from_exponents(defaults[n])
    if modulus_big is None:
        modulus_big = gf2poly.from_exponents(defaults[6 * n])
    return modulus_base, modulus_big


_HEX = re.compile(r"[0-9a-fA-F]+")

_DRAWS = 64  # draws `Tower._trace_models` takes before it gives up


class _ColumnSolver:
    """The package's one GF(2) elimination. Input j is the word
    vecs[j] << C | 1 << j, C = len(vecs), its combination in the low C bits,
    and pivots are listed by `bit_length`: a step is one `bit_length`, one
    list read and one XOR, and a word reduced to C bits is a kernel vector.

    Inputs are walked from last to first, so a dependent input j reduces
    against pivots from inputs after j, and its kernel vector is e_j plus
    pivot inputs above j, whichever bit keys the pivots. No pivot input is a
    kernel vector's least bit, so `kernel_basis`, by ascending least bit, is
    the unique reduced row echelon form of the kernel.
    """

    def __init__(self, vecs: list[int] | tuple[int, ...]):
        c = self._c = len(vecs)
        self._width = max(vecs, default=0).bit_length()
        pivots = self._pivots = [0] * (c + self._width + 1)  # bit_length -> word
        kernel = []
        for j in range(c - 1, -1, -1):
            word = vecs[j] << c | 1 << j
            top = word.bit_length()
            while top > c:
                hit = pivots[top]
                if not hit:
                    pivots[top] = word
                    break
                word ^= hit
                top = word.bit_length()
            else:
                kernel.append(word)
        self.kernel_basis: tuple[int, ...] = tuple(reversed(kernel))

    def solve(self, target: int) -> int | None:
        """A combination x of the inputs summing to target, or None outside the span."""
        if target.bit_length() > self._width:
            return None
        c, pivots = self._c, self._pivots
        word = target << c
        top = word.bit_length()
        while top > c:
            hit = pivots[top]
            if not hit:
                return None
            word ^= hit
            top = word.bit_length()
        return word

    @staticmethod
    def rref(vecs: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        """Reduced row echelon basis of the span of vecs, by ascending least
        set bit (keyed by its `bit_length`): vecs reduced alone, last to
        first, then back-substituted from the highest pivot down (a reduced
        row holds no other pivot bit)."""
        pivots: dict[int, int] = {}
        for vec in reversed(vecs):
            while vec:
                low = (vec & -vec).bit_length()
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = vec
                    break
                vec ^= hit
        reduced: dict[int, int] = {}
        above = 0  # pivot bits of the rows reduced so far
        for low in sorted(pivots, reverse=True):
            vec = pivots[low]
            hits = vec & above
            while hits:
                bit = hits & -hits
                vec ^= reduced[bit.bit_length()]
                hits ^= bit
            reduced[low] = vec
            above |= 1 << low - 1
        return tuple(reversed(reduced.values()))


def _apply_cols(cols: list[int] | tuple[int, ...], x: int) -> int:
    """XOR of cols[j] over the set bits j of x: the GF(2)-linear map with columns cols."""
    r = 0
    while x:
        low = x & -x
        r ^= cols[low.bit_length() - 1]
        x ^= low
    return r


def solve_affine_linearized(cols: list[int] | tuple[int, ...],
                             b: int) -> tuple[int, tuple[int, ...]] | None:
    """The solutions of M(x) = b, M the GF(2)-linear map with columns cols, as
    a coset (particular, kernel_basis), or None when b is outside the image.

    The coset holds 2^len(kernel_basis) solutions; none of them is listed.
    """
    solver = _ColumnSolver(cols)
    particular = solver.solve(b)
    return None if particular is None else (particular, solver.kernel_basis)


def _chunk_tables(cols: np.ndarray, width: int = 8) -> np.ndarray:
    """Lookup tables of GF(2)-linear maps per chunk of `width` input bits
    (a byte by default): cols[..., i] is the image of input bit i, and
    out[..., b, v] the image of the value v of chunk b, each table filled by
    doubling on one column a step."""
    import numpy as np
    if cols.shape[-1] % width:
        cols = np.concatenate([cols, np.zeros(cols.shape[:-1] + (-cols.shape[-1] % width,),
                                              dtype=cols.dtype)], axis=-1)
    cols = cols.reshape(cols.shape[:-1] + (cols.shape[-1] // width, width))
    out = np.zeros(cols.shape[:-1] + (1 << width,), dtype=cols.dtype)
    for i in range(width):
        np.bitwise_xor(out[..., :1 << i], cols[..., i:i + 1], out=out[..., 1 << i:2 << i])
    return out


def _parse_hex(text: str) -> int:
    """The value of a string of hex digits; `int(text, 16)` would also take a
    sign, a 0x prefix, underscores and surrounding space."""
    if not _HEX.fullmatch(text):
        raise ValueError(f"bad hex {text!r}: expected hex digits 0-9, a-f only")
    return int(text, 16)


class BaseLogs(NamedTuple):
    """GF(q)*, q = 2^n, as powers of its least generator g: exp[k] is the
    base encoding of g^k, embedded[k] its big-field encoding, log maps each
    embedded[k] back to k (k < q - 1), and base_log[exp[k]] is k too
    (base_log[0] is None)."""

    exp: tuple[int, ...]
    embedded: tuple[int, ...]
    log: dict[int, int]
    base_log: tuple[int | None, ...]


class _Embedding(NamedTuple):
    """The base subfield (sorted) and the embedding of GF(2^n) onto it, the
    span of gamma^0..gamma^(n-1) in embed order: span[a] = embed_base(a)."""

    subfield: tuple[int, ...]
    span: list[int]


class Tower:
    """The tower GF(2) < GF(2^n) < GF(2^(6n)) with fixed moduli and embedding.

    Default moduli are the deterministic fewest-terms, least-value
    irreducibles of degrees n and 6n, read from `_MODULI` and checked like
    given ones. The embedding sends the base field's generator
    (x mod modulus_base) to the enc-least root of modulus_base in the big
    field, so encodings are reproducible across runs; it and the
    subfield list are built on first read (`_embedding`, from the checked
    table `_ROOTS` on a default tower of n <= 11, else from a model of the
    subfield, `_trace_models`), the moduli checks at construction.
    """

    def __init__(self, n: int, modulus_base: int | None = None,
                 modulus_big: int | None = None):
        _check_n(n)
        self.n = n
        self.big_degree = 6 * n
        m = self.big_degree
        modulus_base, modulus_big = _moduli(n, modulus_base, modulus_big)
        if gf2poly.degree(modulus_base) != n or not gf2poly.is_irreducible(modulus_base):
            raise ValueError("modulus_base must be irreducible of degree n")
        if gf2poly.degree(modulus_big) != m:
            raise ValueError("modulus_big must be irreducible of degree 6n")
        self.modulus_base = modulus_base
        self.modulus_big = modulus_big
        self.order = 1 << m

        # one reduction table, read from the top byte of a product down:
        # red[b] = (b << 6n) ^ ((b << 6n) mod modulus_big)
        self._red = [0]
        for k in range(8):  # bit k of the byte doubles the table
            top = (1 << (m + k)) ^ gf2poly.mod(1 << (m + k), modulus_big)
            self._red += [t ^ top for t in self._red]
        # (sh, sh - 6n) for each byte of a product above bit 6n + 7, top first
        self._shifts = tuple((sh, sh - m) for sh in range(m + 8 * ((m - 2) // 8), m, -8))

        # x^(2^i) mod modulus_big, i <= 6n, by table squarings: modulus_big
        # passes both Rabin tests on it, and it is kept, chain[i] seeding the
        # columns of sigma^i (`_frob_cols`)
        chain = self._chain = [2]
        for _ in range(m):
            chain.append(self.square(chain[-1]))
        if not gf2poly.is_irreducible(modulus_big, chain=chain):
            raise ValueError("modulus_big must be irreducible of degree 6n")
        self._frob_cache: dict[int, list[int]] = {0: [1 << j for j in range(m)]}
        self._np_tables: dict[tuple, object] = {}  # per-tower tables, built on first use

    @functools.cached_property
    def _embedding(self) -> _Embedding:
        """The subfield GF(2^n) and the embedding of the base field onto it,
        built together on the first read of `subfield`, `embed_base`,
        `to_base` or `base_logs`.

        gamma, the enc-least root of modulus_base, is read from `_ROOTS` on a
        tower with the default moduli of a tabled n, else found by
        `_searched_root`, and checked either way (`_least_root_powers`). The
        subfield and the span in embed order come from one doubling over the
        columns gamma^0..gamma^(n-1)."""
        n = self.n
        gamma = _default_roots().get(n)
        if gamma is None or (self.modulus_base, self.modulus_big) != _moduli(n):
            gamma = self._searched_root()
        powers = self._least_root_powers(gamma)
        if powers is None:
            raise AssertionError("embedding root is not the least root of modulus_base")
        cols = powers[:n]  # gamma^0..gamma^(n-1)
        # n independent columns fixed by sigma^n span the n-dimensional fixed field
        if _ColumnSolver(cols).kernel_basis or any(self.frobenius(c, n) != c for c in cols):
            raise AssertionError("embedding image differs from the fixed field")
        span = [0]  # span[a] = embed_base(a), doubled on one column a step
        for c in cols:
            span += [v ^ c for v in span]
        return _Embedding(tuple(sorted(span)), span)

    def _searched_root(self) -> int:
        """The enc-least root of modulus_base in the big field, by search: the
        first model of GF(2^n) (`_trace_models`) gives w and its minimal
        polynomial m_w, y -> w maps K = GF(2)[y]/(m_w) onto the subfield, so
        the roots of modulus_base there are the image of the least root r in
        K (`gf2poly.field_root`) and its n - 1 squarings."""
        to_big, m_w, _ = next(self._trace_models(self.n))
        roots = [_apply_cols(to_big, gf2poly.field_root(self.modulus_base, m_w))]
        for _ in range(self.n - 1):
            roots.append(self.square(roots[-1]))
        return min(roots)

    def _least_root_powers(self, gamma: int) -> list[int] | None:
        """gamma^0..gamma^n if gamma is the enc-least root of modulus_base,
        else None: an encoding below 2^(6n) with f(gamma) = 0 for
        f = modulus_base, the XOR of those powers at the set bits of f, that
        is less than each of its other n - 1 conjugates, with
        gamma^(2^n) = gamma. As f is irreducible of degree n, its roots are
        exactly these conjugates."""
        if gamma >> self.big_degree:
            return None
        powers = self._powers(gamma, self.n + 1)
        if _apply_cols(powers, self.modulus_base):
            return None
        conjugate = gamma
        for _ in range(self.n - 1):
            conjugate = self.square(conjugate)
            if conjugate <= gamma:
                return None
        return powers if self.square(conjugate) == gamma else None

    def _trace_models(self, d: int) -> Iterator[tuple[list[int], int, int]]:
        """Models of the subfield GF(2^d), d | 6n, as (w^0..w^(d-1), m_w, z).

        For each draw z of random.Random(0).getrandbits(6n), w is its trace
        Tr(z) = z + sigma^d(z) + ... + sigma^(6n-d)(z), which lies in
        GF(2^d), and m_w is the one relation among w^0..w^d (one
        `_ColumnSolver`). When it has degree d, m_w is the minimal polynomial
        of w and y -> w maps K = GF(2)[y]/(m_w) onto GF(2^d) with columns
        w^0..w^(d-1); a trace in a proper subfield has more than one relation
        and is skipped. Raises AssertionError after _DRAWS draws."""
        m = self.big_degree
        rng = random.Random(0)
        for _ in range(_DRAWS):
            z = w = conjugate = rng.getrandbits(m)
            for _ in range(m // d - 1):
                conjugate = self.frobenius(conjugate, d)
                w ^= conjugate
            powers = self._powers(w, d + 1)
            kernel = _ColumnSolver(powers).kernel_basis
            if len(kernel) == 1:
                yield powers[:d], kernel[0], z
        raise AssertionError(f"{_DRAWS} draws gave no usable model of GF(2^{d})")

    @property
    def subfield(self) -> tuple[int, ...]:
        """The 2^n elements of the base subfield in the big field, ascending."""
        return self._embedding.subfield

    # ------------------------------------------------------------------ core

    def mul(self, x: int, y: int) -> int:
        """x * y: the bytes of the carry-less product from bit 6n up are
        cleared top first, each folded into the bits below it by one lookup
        in the reduction table. `square` repeats these lines; a call shared
        by both cost about 7 % of a `mul` at n = 5."""
        p = gf2poly.mul(x, y)
        red = self._red
        for sh, lo in self._shifts:
            p ^= red[(p >> sh) & 255] << lo
        return p ^ red[p >> self.big_degree]

    def square(self, x: int) -> int:
        """mul(x, x), by `gf2poly.square` and the reduction of `mul`."""
        p = gf2poly.square(x)
        red = self._red
        for sh, lo in self._shifts:
            p ^= red[(p >> sh) & 255] << lo
        return p ^ red[p >> self.big_degree]

    def inv(self, x: int) -> int:
        return gf2poly.inverse(x, self.modulus_big)

    def inv_batch(self, values: list[int]) -> list[int]:
        """Invert each element with its own `inv`: at n <= 7 one extended
        Euclid is cheaper than the three products per element of a
        prefix-product batch."""
        return [self.inv(v) for v in values]

    # ------------------------------------------------------------- frobenius

    def _powers(self, z: int, count: int) -> list[int]:
        """z^0..z^(count - 1), count >= 2: z^(2j) = (z^j)^2 and z^(2j + 1) = z^(2j) * z."""
        powers = [1, z]
        for j in range(2, count):
            powers.append(self.mul(powers[-1], z) if j & 1 else self.square(powers[j >> 1]))
        return powers

    def _frob_cols(self, i: int) -> list[int]:
        """Columns of x -> x^(2^i) in the polynomial basis, built on first use
        and cached per i.

        Column j is z^j with z = x^(2^i), read off the chain `__init__`
        kept: the powers of z (`_powers`) and no squaring loop.
        """
        i %= self.big_degree
        cols = self._frob_cache.get(i)
        if cols is None:
            cols = self._frob_cache[i] = self._powers(self._chain[i], self.big_degree)
        return cols

    def frobenius(self, x: int, i: int) -> int:
        """x^(2^i), i reduced modulo 6n: (i mod n) squarings, then floor(i / n)
        steps on the sigma^n columns (`_frob_cols`, built on first use)."""
        i %= self.big_degree
        for _ in range(i % self.n):
            x = self.square(x)
        cols = self._frob_cols(self.n)
        for _ in range(i // self.n):
            x = _apply_cols(cols, x)
        return x

    def conjugates(self, x: int) -> tuple[int, ...]:
        """x, x^q, ..., x^(q^(d-1)), q = 2^n: the orbit of x under sigma^n,
        walked on the sigma^n columns (`_frob_cols`, built on first use).
        Its length d, the least with x^(2^(dn)) = x, is the degree of x over
        GF(q) and divides 6."""
        cols = self._frob_cols(self.n)
        orbit = [x]
        for _ in range(6):
            y = _apply_cols(cols, orbit[-1])
            if y == x:
                return tuple(orbit)
            orbit.append(y)
        raise AssertionError("element outside the degree-6 tower")

    def is_degree_six(self, x: int) -> bool:
        """Neither sigma^(2n) nor sigma^(3n) fixes x, both reached by sigma^n steps."""
        cols = self._frob_cols(self.n)
        y = _apply_cols(cols, _apply_cols(cols, x))
        return y != x and _apply_cols(cols, y) != x

    # ------------------------------------------------------------- embedding

    def embed_base(self, a: int) -> int:
        """Embed a base-field encoding (n bits) into the big field: span[a]
        of the embedding record."""
        if a >> self.n:
            raise ValueError("base-field encoding out of range")
        return self._embedding.span[a]

    def to_base(self, x: int) -> int:
        """Inverse of embed_base, read off `base_logs`: the one membership
        test of the embedded subfield, a ValueError outside it."""
        logs = self.base_logs
        try:
            return logs.exp[logs.log[x]] if x else 0
        except KeyError:
            raise ValueError("element is not in the embedded base field") from None

    @functools.cached_property
    def base_logs(self) -> BaseLogs:
        """Discrete logs on GF(q)*, q = 2^n, to the base of its least
        generator; built on first read and kept."""
        n, modulus = self.n, self.modulus_base
        q = 1 << n
        for g in range(2, q):  # least generator of GF(q)*, on base encodings
            shifts = range(1, g.bit_length())
            exp = [1]
            while len(exp) < q:
                v = exp[-1]  # v g: a shift, one conditional reduction and an add per bit of g
                nxt = v if g & 1 else 0
                for i in shifts:
                    v <<= 1
                    if v >> n:
                        v ^= modulus
                    if g >> i & 1:
                        nxt ^= v
                if nxt == 1:
                    break
                exp.append(nxt)
            if len(exp) == q - 1:
                break
        span = self._embedding.span
        embedded = tuple(span[a] for a in exp)
        base_log: list[int | None] = [None] * q
        for k, a in enumerate(exp):
            base_log[a] = k
        return BaseLogs(tuple(exp), embedded, {x: k for k, x in enumerate(embedded)},
                        tuple(base_log))

    def _frob_plus_id_cols(self, *ks: int) -> tuple[int, ...]:
        """Columns of x -> x + x^(2^k_1) + x^(2^k_2) + ..., the identity's
        columns plus each power's; for one k the kernel is GF(2^gcd(k, 6n))."""
        cols = self._frob_cols(0)
        for k in ks:
            cols = tuple(map(operator.xor, cols, self._frob_cols(k)))
        return cols

    # --------------------------------------------------------- polynomials

    def minimal_polynomial(self, alpha: int) -> tuple[int, ...]:
        """Monic minimal polynomial of alpha over GF(2^n).

        Coefficients are returned ascending by degree, pre-embedded in the
        big field: the product of x - c over the conjugates c of alpha, so
        the degree is len(conjugates(alpha)).
        """
        poly = [1]
        for c in self.conjugates(alpha):
            nxt = [0, *poly]  # x poly + c poly, whose top term c needs no product
            for k in range(len(poly) - 1):
                nxt[k] ^= self.mul(poly[k], c)
            nxt[-2] ^= c
            poly = nxt
        try:
            for pk in poly:
                self.to_base(pk)
        except ValueError as exc:
            raise AssertionError("coefficient escaped the base field") from exc
        return tuple(poly)

    # ------------------------------------------------------------ serialization

    @property
    def hex_width(self) -> int:
        return -(-self.big_degree // 4)

    def to_hex(self, x: int) -> str:
        if not 0 <= x < self.order:
            raise ValueError("encoding out of range")
        return format(x, f"0{self.hex_width}x")

    def from_hex(self, s: str) -> int:
        x = _parse_hex(s)
        if x >> self.big_degree:
            raise ValueError("encoding out of range")
        return x

    def base_to_hex(self, a: int) -> str:
        if a >> self.n:
            raise ValueError("base encoding out of range")
        return format(a, f"0{-(-self.n // 4)}x")

    # ------------------------------------------------------------ numpy paths

    def _byte_tables(self, cols: list[int] | np.ndarray) -> np.ndarray:
        """The byte tables (`_chunk_tables`) of a GF(2)-linear map on
        encodings with columns cols (one per input bit, along the last
        axis: a stack of maps gives a stack of tables)."""
        import numpy as np
        if self.big_degree > 63:
            raise ValueError("vectorized paths need encodings below 64 bits")
        return _chunk_tables(np.array(cols, dtype=np.int64))

    def frob_tables(self, i: int) -> np.ndarray:
        key = ("frob", i % self.big_degree)
        tabs = self._np_tables.get(key)
        if tabs is None:
            tabs = self._byte_tables(self._frob_cols(i))
            self._np_tables[key] = tabs
        return tabs

    @staticmethod
    def apply_tables(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = tables[0][x & 0xFF]
        for bpos in range(1, len(tables)):
            out ^= tables[bpos][(x >> (8 * bpos)) & 0xFF]
        return out

    def __repr__(self) -> str:
        base = ",".join(map(str, gf2poly.exponents(self.modulus_base)))
        big = ",".join(map(str, gf2poly.exponents(self.modulus_big)))
        return f"Tower(n={self.n}, base=[{base}], big=[{big}])"


def make_tower(n: int, modulus_base: int | None = None,
               modulus_big: int | None = None) -> Tower:
    """Build the tower for a given n; moduli default to the deterministic pick."""
    return Tower(n, modulus_base=modulus_base, modulus_big=modulus_big)
