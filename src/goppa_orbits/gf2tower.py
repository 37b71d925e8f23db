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
  floor(i / n) steps on the sigma^n columns that `__init__` builds: at most
  n - 1 squarings and 5 column applications, and no new column table for a
  power used once.
- `_frob_cols(i)`, the columns of x -> x^(2^i), are the powers z^j of
  z = x^(2^i), cached per i; a new i costs i squarings, and its columns
  3n - 1 squarings, z^(2j) = (z^j)^2, and 3n - 1 products. `_powers` is
  the one power builder, also behind the sigma^n columns of `__init__`,
  the subfield models and the embedding columns. `_frob_plus_id_cols` and `frob_tables` build on the
  columns, and `_apply_cols` is the one GF(2)-linear map application.
- The degree tests walk the orbit of x under sigma^n on the sigma^n columns
  that `__init__` builds: the degree over GF(2^n) is the first d with
  sigma^(dn)(x) = x, and a degree-6 test takes three steps. So
  `conjugates`, `is_degree_six`, `minimal_polynomial` and
  `mobius.random_degree_six` build no other Frobenius columns.
- `base_logs` is the tower's one table of GF(q)*, q = 2^n: the powers of
  the least generator (on base encodings, the package's one generator
  search), their embeddings, and the discrete log of each embedding, built
  on first read: 0.03 ms at n = 5, a few ms at n = 11. The Goppa parity
  (`codes.goppa_parity`), support permutations
  (`codes.induced_permutation`) and `to_base` read it: x is in GF(q) iff
  it is 0 or has a log, so `to_base` is the one projection and membership
  test (`minimal_polynomial`, `mobius.make_map`).

Construction only validates the moduli and builds what every command
uses. The default moduli are read from `_DEFAULT_MODULI`, a table of the
`gf2poly.lowest_irreducible` picks for the 29 degrees n and 6n a tower can
ask for (the tests check it against that search), and a table modulus
passes exactly the checks a given one does: `gf2poly.is_irreducible` for
modulus_base, and for modulus_big both Rabin tests on the chain
x^(2^i) mod modulus_big, i <= 6n, that the tower squares on its own
reduction table. chain[n] seeds the sigma^n columns. `make_tower` takes
about 0.12-0.16 ms at n = 5, 0.19-0.27 ms at n = 7, 1.1-1.4 ms at n = 16,
and 0.09-0.13 ms at n = 4 with the given modulus 24,4,3,1,0 (2 vCPU; the
host drifts by up to half).

A subfield GF(2^d), d | 6n, has one model, `_trace_models(d)`: for each
draw z of random.Random(0).getrandbits(6n), the trace
w = z + sigma^d(z) + ... + sigma^(6n-d)(z), walked on the sigma^n
columns, lies in GF(2^d), and when the one relation among w^0..w^d (one
`_ColumnSolver`) has degree d it is the minimal polynomial m_w, so
y -> w maps K = GF(2)[y]/(m_w) onto GF(2^d); a trace in a proper subfield
is skipped. The embedding and the log tables of the coordinate kernel both
start from such a model, of GF(2^n) and of GF(q^3).

The subfield and the embedding are built together on the first read of
`subfield`, `embed_base`, `to_base` or `base_logs`, so root counts and a
fixed-point count read off a cached sweep build neither. From the first
model of GF(2^n), `gf2poly.field_root` finds the least root r of
modulus_base in K by an ascending scan on n-bit integers; gamma, the
enc-least root in the big field, is the least of the image of r and its
n - 1 squarings, whatever w is, and the embedding columns are
gamma^0..gamma^(n-1). One doubling over them lists the subfield and the
span in embed order, span[a] = embed_base(a): the record's two fields,
and all the census reads of GF(q). The embedding is checked in
O(n): its n columns are independent and fixed by sigma^n. This first
read, with `base_logs`, costs about 0.1-0.2 ms at n = 4 and 5, 0.3-0.4 ms
at n = 7 and 9-11 ms at n = 11, the largest n a command reads it at,
where the scan for r is most of it (2 vCPU).

The numpy paths hold encodings in int64, so they need 6n <= 63 (n <= 10)
and raise ValueError above it. numpy is first imported by the first call
of a vector path (`_chunk_tables`, which every lookup table goes through,
and the coordinate kernel), never at import: construction and the scalar
kernel run without it. The tables are built on first use. `_np_tables`
keeps the keyed ones, the byte tables of each Frobenius power
(`frob_tables`) and the census's two (`counting`), and two cached
properties the rest; the census reads both, `mobius` the second:
- `normal_tables`, the coordinates in a normal basis beta^(2^i), in which
  squaring is a rotation by one bit, so the census ranks the 6n squarings
  of a value after one table application;
- `_cubic_logs`, the coordinate kernel's tables and the log of its c,
  behind the package's one vector product (`mul_vec`) and one vector
  inverse (`inv_vec`, which can multiply by the inverse without building
  it). They work in coordinates
  over GF(q^3), as composite-field arithmetic does (Guajardo and Paar,
  CRYPTO 1997): x = u + v t with t + sigma^(3n)(t) = 1 and t^2 = t + c,
  packed as u | v << 3n. A product is three products in GF(q^3),
  (u + v t)(u' + v' t) = (u u' + c v v') + ((u + v)(u' + v') + u u') t
  (`_mul_logs`); the norm to GF(q^3) is N = u(u + v) + c v^2 and
  1/x = ((u + v) + v t)/N. Every product and quotient in GF(q^3) is a sum
  of logs on int32 log and exp tables of GF(q^3)*, and a byte table takes
  encodings into the coordinates and one takes them back. The log tables
  hold 2^(3n) and 2^(3n+1) - 1 entries, 24 MiB at n = 7, so the kernel
  serves n <= 7 and refuses n = 8..10. Building them takes 0.44-0.67 ms at
  n = 4 (about 0.9 ms as the first build of a fresh process) and 46-67 ms
  at n = 7 (2 vCPU), against 0.07 ms for one `mul_vec` on 4096 elements
  at n = 4 and 0.31 ms on 8192 at n = 7, and 0.10 and 0.35 ms for one
  `inv_vec` with a scale (best of 5 x 100 calls).

Linear algebra over GF(2) has one elimination, `_ColumnSolver`: it reduces
int-bitmask vectors at their least set bits and keeps the input combination
behind each pivot. Walking the inputs from last to first makes its kernel
basis come out in reduced row echelon form. That kernel gives the minimal
polynomial of a trace (`_trace_models`) and every binary code; `solve`
inverts GF(2)-linear maps, and its `rref` is `codes.rref`.
`solve_affine_linearized` hands back the solutions of a linearized equation
as a coset, a particular solution and a kernel basis, so a root count is a
rank and never a list of roots.
"""

from __future__ import annotations

import functools
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

_MAX_N = 16  # the last n in _DEFAULT_MODULI; reading the subfield lists its 2^n elements

# the default moduli, as exponents: gf2poly.lowest_irreducible(d), the
# fewest-terms, least-value irreducible, for each degree a tower asks for,
# d = n and d = 6n with 2 <= n <= 16; tests/test_gf2tower.py checks every
# entry against that search, and the constructor checks each one it reads
_DEFAULT_MODULI = {
    2: (2, 1, 0), 3: (3, 1, 0), 4: (4, 1, 0), 5: (5, 2, 0), 6: (6, 1, 0),
    7: (7, 1, 0), 8: (8, 4, 3, 1, 0), 9: (9, 1, 0), 10: (10, 3, 0),
    11: (11, 2, 0), 12: (12, 3, 0), 13: (13, 4, 3, 1, 0), 14: (14, 5, 0),
    15: (15, 1, 0), 16: (16, 5, 3, 1, 0), 18: (18, 3, 0), 24: (24, 4, 3, 1, 0),
    30: (30, 1, 0), 36: (36, 9, 0), 42: (42, 7, 0), 48: (48, 5, 3, 2, 0),
    54: (54, 9, 0), 60: (60, 1, 0), 66: (66, 3, 0), 72: (72, 10, 9, 3, 0),
    78: (78, 6, 5, 3, 0), 84: (84, 5, 0), 90: (90, 27, 0), 96: (96, 10, 9, 6, 0),
}

_HEX = re.compile(r"[0-9a-fA-F]+")

# the generators `Tower._cubic_logs` tries in GF(2)[y]/(m_w), as the roots a of
# their factors y + a: y, y + 1 and y (y + 1), each product a shift (and an add)
_GENERATORS = ((0,), (1,), (0, 1))
_DRAWS = 64  # draws `Tower._trace_models` takes before it gives up
_CHUNK = 1 << 16  # elements per numpy pass while `Tower._cubic_logs` fills its tables


class _ColumnSolver:
    """The package's one GF(2) elimination: pivots at least set bits, each with
    the combination of inputs (bit j = input j) it came from; inputs that
    reduce to zero give the kernel.

    Inputs are walked from last to first, so a dependent input j reduces
    against pivots that all came from inputs after j, and its kernel vector is
    e_j plus pivot inputs above j. No pivot input is ever a kernel vector's
    least bit, so `kernel_basis`, by ascending least bit, is the unique
    reduced row echelon form of the kernel: the tuple `codes.rref` returns.
    """

    def __init__(self, vecs: list[int] | tuple[int, ...]):
        self._pivots: dict[int, tuple[int, int]] = {}  # least bit -> (vec, combo)
        kernel = []
        for j in range(len(vecs) - 1, -1, -1):
            vec, combo = vecs[j], 1 << j
            while vec:
                low = (vec & -vec).bit_length() - 1
                hit = self._pivots.get(low)
                if hit is None:
                    self._pivots[low] = (vec, combo)
                    break
                vec ^= hit[0]
                combo ^= hit[1]
            else:
                kernel.append(combo)
        self.kernel_basis: tuple[int, ...] = tuple(reversed(kernel))

    def solve(self, target: int) -> int | None:
        """A combination x of the inputs summing to target, or None outside the span."""
        x = 0
        while target:
            hit = self._pivots.get((target & -target).bit_length() - 1)
            if hit is None:
                return None
            target ^= hit[0]
            x ^= hit[1]
        return x

    def rref(self) -> tuple[int, ...]:
        """Reduced row echelon basis of the span, by ascending pivot; back-substitutes
        from the highest pivot down (a reduced row holds no other pivot bit)."""
        reduced: dict[int, int] = {}
        above = 0  # pivot bits of the rows reduced so far
        for low in sorted(self._pivots, reverse=True):
            vec = self._pivots[low][0]
            hits = vec & above
            while hits:
                bit = hits & -hits
                vec ^= reduced[bit.bit_length() - 1]
                hits ^= bit
            reduced[low] = vec
            above |= 1 << low
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


def _fold(s: np.ndarray, order: int) -> np.ndarray:
    """s less order where s >= order, for an int32 array s >= 0: read as
    uint32, s - order wraps above s exactly where s < order, so the least
    of the two is the result. A sum of two logs below order lands below
    order, and a sum that holds log 0 (3 order) stays past 2 order."""
    import numpy as np
    s = s.view(np.uint32)
    return np.minimum(s, s - np.uint32(order)).view(np.int32)


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


class _CubicLogs(NamedTuple):
    """The coordinate kernel's tables and the log of its c (`Tower._cubic_logs`)."""

    coords: np.ndarray
    out: np.ndarray
    log: np.ndarray
    exp: np.ndarray
    log_c: int


class Tower:
    """The tower GF(2) < GF(2^n) < GF(2^(6n)) with fixed moduli and embedding.

    Default moduli are the deterministic fewest-terms, least-value
    irreducibles of degrees n and 6n, read from `_DEFAULT_MODULI` and
    checked like given ones. The embedding sends the base field's
    generator (x mod modulus_base) to the enc-least root of modulus_base in
    the big field, so encodings are reproducible across runs; it and the
    subfield list are built on first read (`_embedding`, from a model of
    the subfield, `_trace_models`), the moduli checks at construction.
    """

    def __init__(self, n: int, modulus_base: int | None = None,
                 modulus_big: int | None = None):
        if n < 2:
            raise ValueError("n must be at least 2")
        if n > _MAX_N:
            raise ValueError(
                f"n={n} exceeds the construction cap ({_MAX_N}), "
                "the last n with default moduli")
        self.n = n
        self.big_degree = 6 * n
        m = self.big_degree
        if modulus_base is None:
            modulus_base = gf2poly.from_exponents(_DEFAULT_MODULI[n])
        if gf2poly.degree(modulus_base) != n or not gf2poly.is_irreducible(modulus_base):
            raise ValueError("modulus_base must be irreducible of degree n")
        if modulus_big is None:
            modulus_big = gf2poly.from_exponents(_DEFAULT_MODULI[m])
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
        # passes both Rabin tests on it, and chain[n] seeds the sigma^n columns
        chain = [2]
        for _ in range(m):
            chain.append(self.square(chain[-1]))
        if not gf2poly.is_irreducible(modulus_big, chain=chain):
            raise ValueError("modulus_big must be irreducible of degree 6n")
        self._frob_cache: dict[int, list[int]] = {
            0: [1 << j for j in range(m)], n: self._powers(chain[n], m)}
        self._np_tables: dict[tuple, object] = {}  # per-tower tables, built on first use

    @functools.cached_property
    def _embedding(self) -> _Embedding:
        """The subfield GF(2^n) and the embedding of the base field onto it,
        built together on the first read of `subfield`, `embed_base`,
        `to_base` or `base_logs`.

        The first model of GF(2^n) (`_trace_models`) gives w and its minimal
        polynomial m_w: y -> w maps K = GF(2)[y]/(m_w) onto the subfield, so
        the roots of modulus_base there are the image of a root r in K and
        its n - 1 squarings, and gamma is the enc-least of them. The subfield
        and the span in embed order come from one doubling over the columns
        gamma^0..gamma^(n-1)."""
        n = self.n
        to_big, m_w, _ = next(self._trace_models(n))
        roots = [_apply_cols(to_big, gf2poly.field_root(self.modulus_base, m_w))]
        for _ in range(n - 1):
            roots.append(self.square(roots[-1]))
        cols = self._powers(min(roots), n)  # gamma^0..gamma^(n-1)
        # n independent columns fixed by sigma^n span the n-dimensional fixed field
        if _ColumnSolver(cols).kernel_basis or any(self.frobenius(c, n) != c for c in cols):
            raise AssertionError("embedding image differs from the fixed field")
        span = [0]  # span[a] = embed_base(a), doubled on one column a step
        for c in cols:
            span += [v ^ c for v in span]
        return _Embedding(tuple(sorted(span)), span)

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
        """Columns of x -> x^(2^i) in the polynomial basis, cached per i.

        Column j is z^j with z = x^(2^i): i squarings, then the powers of z
        (`_powers`).
        """
        i %= self.big_degree
        cols = self._frob_cache.get(i)
        if cols is None:
            z = 2
            for _ in range(i):
                z = self.square(z)
            cols = self._frob_cache[i] = self._powers(z, self.big_degree)
        return cols

    def frobenius(self, x: int, i: int) -> int:
        """x^(2^i), i reduced modulo 6n: (i mod n) squarings, then floor(i / n)
        steps on the sigma^n columns __init__ built."""
        i %= self.big_degree
        for _ in range(i % self.n):
            x = self.square(x)
        cols = self._frob_cols(self.n)
        for _ in range(i // self.n):
            x = _apply_cols(cols, x)
        return x

    def conjugates(self, x: int) -> tuple[int, ...]:
        """x, x^q, ..., x^(q^(d-1)), q = 2^n: the orbit of x under sigma^n,
        walked on the columns __init__ built. Its length d, the least with
        x^(2^(dn)) = x, is the degree of x over GF(q) and divides 6."""
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
        q = 1 << self.n
        for g in range(2, q):  # least generator of GF(q)*, on base encodings
            exp = [1]
            while len(exp) < q:
                nxt = gf2poly.mod(gf2poly.mul(exp[-1], g), self.modulus_base)
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

    def _frob_plus_id_cols(self, k: int) -> tuple[int, ...]:
        """Columns of x -> x^(2^k) + x, whose kernel is GF(2^gcd(k, 6n))."""
        return tuple(c ^ (1 << j) for j, c in enumerate(self._frob_cols(k)))

    # --------------------------------------------------------- polynomials

    def minimal_polynomial(self, alpha: int) -> tuple[int, ...]:
        """Monic minimal polynomial of alpha over GF(2^n).

        Coefficients are returned ascending by degree, pre-embedded in the
        big field: the product of x - c over the conjugates c of alpha, so
        the degree is len(conjugates(alpha)).
        """
        poly = [1]
        for c in self.conjugates(alpha):
            nxt = [0] * (len(poly) + 1)
            for k, pk in enumerate(poly):
                nxt[k + 1] ^= pk
                nxt[k] ^= self.mul(pk, c)
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

    def _byte_tables(self, cols: list[int]) -> np.ndarray:
        """The byte tables (`_chunk_tables`) of a GF(2)-linear map on
        encodings with columns cols (one per input bit)."""
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

    def frobenius_vec(self, x: np.ndarray, i: int) -> np.ndarray:
        return self.apply_tables(self.frob_tables(i), x)

    @functools.cached_property
    def normal_tables(self) -> np.ndarray:
        """Byte tables of the coordinates in a normal basis beta^(2^i),
        i < 6n: bit i of the image of x is the coefficient of beta^(2^i), so
        the image of x^2 is that of x rotated left by one bit.

        beta is the first draw of random.Random(0).getrandbits(6n) whose 6n
        squarings `_ColumnSolver` finds independent, which takes 1-4 draws
        on the towers tried; ordered candidates (ascending integers, x^(6n-1)
        + k) took hundreds on some. Built on first read and kept."""
        m = self.big_degree
        rng = random.Random(0)
        while True:
            squarings = [rng.getrandbits(m)]
            for _ in range(m - 1):
                squarings.append(self.square(squarings[-1]))
            solver = _ColumnSolver(squarings)
            if not solver.kernel_basis:
                break
        return self._byte_tables([solver.solve(1 << j) for j in range(m)])

    @functools.cached_property
    def _cubic_logs(self) -> _CubicLogs:
        """The tables of the coordinate kernel (`mul_vec`, `inv_vec`), built
        on first read and kept: GF(q^6) = GF(q^3)(t), q = 2^n, in
        coordinates over GF(q^3), and discrete logs on GF(q^3)*. With
        k = 3n, they are (coords, out, log, exp, log_c): byte tables from an
        encoding x = u + v t to u | v << k | (u^2 + c v^2) << 2k, and from
        u | v << k back to x; then int32 logs and powers of g on GF(q^3)*
        with u and v read in the basis w^0..w^(k-1), exp[i] =
        g^(i mod (2^k - 1)) for i < 2(2^k - 1), exp[2(2^k - 1)] = 0, and
        log 0 = 3(2^k - 1), so that a sum that holds log 0, even less
        2^k - 1 (`_fold`), lies past the zero entry of exp, which every
        lookup clips onto; and log_c, the log of c, which the product's
        c v v' term adds.

        w, m_w and the draw z are the first model of GF(q^3)
        (`_trace_models`) whose K = GF(2)[y]/(m_w) has y, y + 1 or y (y + 1)
        for a generator g (`gf2poly.is_generator`, on 3n-bit integers).
        There w = Tr(z) = z + sigma^(3n)(z) has degree 3n, so it is nonzero,
        t = z / w has t + sigma^(3n)(t) = 1, and c = t^2 + t lies in
        GF(q^3), the kernel of sigma^(3n) + id. So x = u + v t with
        u, v in K, read in the basis w^0..w^(3n-1), and exp[i] = g^i: the
        first 64 by shifts, then doubled on the tables of the products by
        g^64, g^128, ..., each read on the low and the high half of g^i.

        The log tables hold 2^(3n) and 2^(3n+1) - 1 entries, 24 MiB at
        n = 7, and the packed coordinates fill 9n bits of one int64, so the
        kernel serves n <= 7 and refuses n = 8..10 with a ValueError that
        names both limits, before it builds anything: at n = 8 the shift by
        2k would run past bit 63 without an error. Raises AssertionError
        when t, c, the change of basis or the powers of g are not what they
        must be."""
        m, k = self.big_degree, 3 * self.n
        if m > 63:
            raise ValueError("vectorized paths need encodings below 64 bits")
        if k > 21:
            raise ValueError(f"mul_vec and inv_vec serve n <= 7: at n = {self.n} their log "
                             f"tables on GF(q^3) would hold 2^{k} entries each, and their "
                             f"packed coordinates u | v << {k} | (u^2 + c v^2) << {2 * k} "
                             f"would need {3 * k} of the 63 bits of an int64")
        import numpy as np
        order = (1 << k) - 1  # |GF(q^3)*|
        powers, m_w, z, g = next((powers, m_w, z, g) for powers, m_w, z in self._trace_models(k)
                                 for g in _GENERATORS if gf2poly.is_generator(m_w, g))
        t = self.mul(z, self.inv(powers[1]))  # powers[1] = w = Tr(z)
        if t ^ self.frobenius(t, k) != 1:
            raise AssertionError("t + sigma^3n(t) is not 1")
        c = self.square(t) ^ t
        if self.frobenius(c, k) != c:
            raise AssertionError("c = t^2 + t lies outside GF(q^3)")
        cols = powers + [self.mul(p, t) for p in powers]  # w^i, then w^i t
        solver = _ColumnSolver(cols)
        if solver.kernel_basis:
            raise AssertionError("the basis w^i, w^i t of GF(q^6) is singular")

        def times_g(v: int) -> int:  # v g in K: a shift (and an add) per factor
            for a in g:
                v = v << 1 ^ (v if a else 0)
                if v >> k:
                    v ^= m_w
            return v

        seed = [1]  # g^i below 64
        for _ in range(min(64, order) - 1):
            seed.append(times_g(seed[-1]))
        by = []  # columns g^d y^i of the products by g^d, d = 64, 128, ... below the order
        g_d = times_g(seed[-1])
        for _ in range(k - 6):
            col = g_d
            for _ in range(k):
                by.append(col)
                col <<= 1
                if col >> k:
                    col ^= m_w
            g_d = gf2poly.mod(gf2poly.square(g_d), m_w)
        half = (k + 1) // 2  # the tables read the low and the high half of g^i
        exp = np.empty(2 * order + 1, dtype=np.int32)
        exp[:len(seed)] = seed
        done = len(seed)
        for low, high in _chunk_tables(np.array(by, dtype=np.int32).reshape(-1, k), half):
            step = min(done, order - done)  # g^done g^i, on the tables of g^done
            for lo in range(0, step, _CHUNK):
                head = exp[lo:min(lo + _CHUNK, step)]
                part = exp[done + lo:done + lo + head.size]
                np.take(low, head & (1 << half) - 1, out=part)
                part ^= high[head >> half]
            done += step
        log = np.full(order + 1, -1, dtype=np.int32)
        for lo in range(0, order, _CHUNK):
            hi = min(lo + _CHUNK, order)
            log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        if log[0] != -1 or (log[1:] < 0).any():
            raise AssertionError("the powers of g are not all of GF(q^3)*")
        exp[order:2 * order] = exp[:order]
        exp[2 * order], log[0] = 0, 3 * order  # a sum holding log 0 lies past the zero

        # each bit of an encoding in coordinates u | v << 3n; u^2 + c v^2 is
        # linear in them, with columns y^2i and c y^2i, and lands above 6n
        ys, cs = [1], [solver.solve(c)]  # y^i and c y^i; c has no v part
        for _ in range(2 * k - 2):
            for col in (ys, cs):
                v = col[-1] << 1
                col.append(v ^ m_w if v >> k else v)
        to_uv, from_coords, square = _chunk_tables(np.array(
            [[solver.solve(1 << j) for j in range(m)], cols, ys[::2] + cs[::2]], dtype=np.int64))
        to_coords = to_uv ^ self.apply_tables(square, to_uv) << 2 * k
        return _CubicLogs(to_coords, from_coords, log, exp, int(log[cs[0]]))

    def _coord_logs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The logs of u, v and u + v for each x = u + v t packed as
        u | v << 3n (bits from 6n up ignored), on the tables of
        `_cubic_logs`: the form in which `_mul_logs` takes its operands."""
        log = self._cubic_logs.log
        k = 3 * self.n
        order = (1 << k) - 1
        u, v = x & order, (x >> k) & order
        return log[u], log[v], log[u ^ v]

    def _mul_logs(self, x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> np.ndarray:
        """The product of two elements given as the logs of their u, v and
        u + v (`_coord_logs`), each below 2^(3n) - 1 or, for a zero, past
        2(2^(3n) - 1), packed as u | v << 3n. With t^2 = t + c,

            (u + v t)(u' + v' t) = (u u' + c v v') + ((u + v)(u' + v') + u u') t,

        three products in GF(q^3), each one sum of logs and one lookup in
        exp; the log of c joins the log of v, folded back below 2^(3n) - 1
        (`_fold`). v is shifted in int64: exp holds int32, which the shift
        by 3n would overflow from n = 6."""
        import numpy as np
        _, _, _, exp, log_c = self._cubic_logs
        k = 3 * self.n
        uu = np.take(exp, x[0] + y[0], mode="clip")
        cvv = np.take(exp, _fold(x[1] + log_c, (1 << k) - 1) + y[1], mode="clip")
        sums = np.take(exp, x[2] + y[2], mode="clip")
        return np.left_shift(sums ^ uu, k, dtype=np.int64) | (uu ^ cvv)

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise products in coordinates over GF(q^3), q = 2^n, n <= 7
        (`_cubic_logs`): x and y hold u | v << 3n for u + v t, bits from 6n
        up ignored, and are broadcast against each other as numpy operands
        are, so shapes (1, R) and (E, 1) give the (E, R) table of every
        product; the result is packed the same way (`_mul_logs`)."""
        return self._mul_logs(self._coord_logs(x), self._coord_logs(y))

    def inv_vec(self, x: np.ndarray, scale: np.ndarray | None = None,
                numer: np.ndarray | None = None) -> np.ndarray:
        """Elementwise numer/(x s) in coordinates over GF(q^3), q = 2^n,
        n <= 7 (`_cubic_logs`), and 0 where x s = 0, packed as u | v << 3n:
        x holds u | v << 3n | (u^2 + c v^2) << 6n, as the table `coords`
        gives; s, an optional array of elements of GF(q^3) read as u, and
        numer, optional packed coordinates, are 1 by default and broadcast
        against x.

        The conjugate of x over GF(q^3) is (u + v) + v t, the norm
        N = u(u + v) + c v^2 = (u^2 + c v^2) + u v lies in GF(q^3), and
        1/(x s) = ((u + v) + v t)/(N s), whose u + v is u/(N s). The product
        u v is one sum of logs; the log of 1/(N s) is 2^(3n) - 1 less the
        log of N s, folded (`_fold`), and where N s = 0 the mask puts log 0
        in its place, so that the result reads 0. The logs of 1/(x s) then
        go straight into the product by numer (`_mul_logs`): the inverse is
        never packed, nor its logs looked up again. The census's
        cross-ratio passes a numerator (`counting._cross_ratio`); the orbit
        oracle's representatives take 1/(alpha + g)
        (`mobius.suborbit_representatives`)."""
        import numpy as np
        _, _, log, exp, _ = self._cubic_logs
        k = 3 * self.n
        order = (1 << k) - 1
        lu, lv, luv = self._coord_logs(x)
        norm = (x >> 2 * k) ^ np.take(exp, lu + lv, mode="clip")
        ld = log[norm] if scale is None else log[norm] + log[scale]
        neg = order - _fold(ld, order)  # log 1/(N s), in (0, order] unless N s = 0
        neg = np.where(neg > 0, neg, log[0])
        inv = _fold(luv + neg, order), _fold(lv + neg, order), _fold(lu + neg, order)
        one = 0, log[0], 0  # the logs of u = 1, v = 0 and u + v = 1
        return self._mul_logs(one if numer is None else self._coord_logs(numer), inv)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Tower)
                and (self.n, self.modulus_base, self.modulus_big)
                == (other.n, other.modulus_base, other.modulus_big))

    def __hash__(self) -> int:
        return hash((self.n, self.modulus_base, self.modulus_big))

    def __repr__(self) -> str:
        base = ",".join(map(str, gf2poly.exponents(self.modulus_base)))
        big = ",".join(map(str, gf2poly.exponents(self.modulus_big)))
        return f"Tower(n={self.n}, base=[{base}], big=[{big}])"


def make_tower(n: int, modulus_base: int | None = None,
               modulus_big: int | None = None) -> Tower:
    """Build the tower for a given n; moduli default to the deterministic pick."""
    return Tower(n, modulus_base=modulus_base, modulus_big=modulus_big)
