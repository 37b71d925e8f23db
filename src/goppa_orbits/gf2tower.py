"""Exact arithmetic in the tower GF(2) < GF(2^n) < GF(2^(6n)).

Field elements are plain ints: bit j of enc(x) is the coefficient of x^j in
the polynomial basis of the field's modulus. 0 and 1 encode the field's zero
and one, and addition is the xor (^) operation. A Tower carries the moduli,
the subfield embedding and the Frobenius machinery; all operations are pure
functions of their inputs. A Tower's moduli never change after
construction; the subfield list and the embedding (`_embedding`), the
Frobenius columns and the numpy tables are built on first read and then
kept unchanged (two threads racing on a first read build equal values),
so a Tower can be shared freely between threads. The module holds what
the commands and the benchmark call; the independent oracles the tests
check it against (a schoolbook product, subfield spans, enumerated root
counts) live in `tests/conftest.py`.

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
  (`_power_cols`) 3n - 1 squarings, z^(2j) = (z^j)^2, and 3n - 1 products.
  `_frob_plus_id_cols` and `frob_tables` build on them, and `_apply_cols`
  is the one GF(2)-linear map application.
- The degree tests walk the orbit of x under sigma^n on the sigma^n columns
  that `__init__` builds: the degree over GF(2^n) is the first d with
  sigma^(dn)(x) = x, and a degree-6 test takes three steps. So
  `conjugates`, `is_degree_six`, `minimal_polynomial` and
  `mobius.random_degree_six` build no other Frobenius columns.
- `base_logs` is the tower's one table of GF(q)*, q = 2^n: the powers of
  the least generator (on base encodings, the package's one generator
  search), their embeddings, and the discrete log of each embedding. It is
  built on first use and kept with the numpy tables, so commands that need
  no arithmetic in GF(q) pay nothing for it: 0.03 ms at n = 5, a few ms at
  n = 11. The Goppa parity (`codes.goppa_parity`), support permutations
  (`codes.induced_permutation`) and the class index's quotient table
  (`counting._class_index`) read it.

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

The subfield and the embedding are built together on the first read of
`subfield`, `subfield_nonzero`, `embed_base`, `to_base` or `base_logs`,
so root counts and a fixed-point count read off a cached sweep build
neither. The subfield GF(2^n) is listed by doubling the span of its
basis, and the embedding root is found in an n-bit copy of the subfield.
The least subfield element w of degree n over GF(2), found by squarings
(w^(2^(n/p)) != w for each prime p | n), has a minimal polynomial m_w, the
one relation among w^0..w^n (one `_ColumnSolver`), so y -> w maps
K = GF(2)[y]/(m_w) onto the subfield. `gf2poly.field_root` finds a root r
of modulus_base in K on n-bit integers; gamma, the enc-least root in the
big field, is the least image of the n conjugates r^(2^i), and the
embedding columns are the images of 1, r, ..., r^(n-1). So the big field
spends n products on the powers of w and a few squarings per candidate
on the search. The embedding is checked in O(n): its n columns are
independent and fixed by sigma^n. This first read costs about 0.12 ms
at n = 5 and 17-25 ms at n = 16, where listing the 65536-element subfield
is almost all of it.

The numpy paths hold encodings in int64, so they need 6n <= 63 (n <= 10)
and raise ValueError above it. Their tables are built on first use and kept
in `_np_tables`: byte tables of Frobenius powers and multipliers
(`frobenius_vec`, `mult_tables`) and the reduction table of `mul_vec`, a
chunked carry-less product of masked integer products reduced on int64
copies of the table of `mul`. `conjugate_tables` fuses a GF(2)-linear map
with all 6n Frobenius powers into one stack of byte tables, which its
caller keeps.

Linear algebra over GF(2) has one elimination, `_ColumnSolver`: it reduces
int-bitmask vectors at their least set bits and keeps the input combination
behind each pivot. Walking the inputs from last to first makes its kernel
basis come out in reduced row echelon form. That kernel gives the subfields
(of the columns of x -> x^(2^k) + x, `_frob_plus_id_cols`) and every binary
code; `solve` inverts GF(2)-linear maps, and its `rref` is `codes.rref`.
`solve_affine_linearized` hands back the solutions of a linearized equation
as a coset, a particular solution and a kernel basis, so a root count is a
rank and never a list of roots.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

import numpy as np

from . import gf2poly

__all__ = [
    "Tower",
    "make_tower",
    "solve_affine_linearized",
]

_MAX_N = 16  # subfield enumeration builds 2^n elements; keep construction desk-scale

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

_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1  # [v, k]: bit k of byte v
# every fourth bit, from bit i, below bit 63: the slots of `Tower.mul_vec`
_SLOTS = tuple(np.int64((0x1111111111111111 << i) & (2**63 - 1)) for i in range(4))


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
    """The base subfield (sorted) and the embedding of GF(2^n) onto it: its
    columns gamma^0..gamma^(n-1) and their elimination, which projects back."""

    subfield: tuple[int, ...]
    cols: list[int]
    project: _ColumnSolver


class Tower:
    """The tower GF(2) < GF(2^n) < GF(2^(6n)) with fixed moduli and embedding.

    Default moduli are the deterministic fewest-terms, least-value
    irreducibles of degrees n and 6n, read from `_DEFAULT_MODULI` and
    checked like given ones. The embedding sends the base field's
    generator (x mod modulus_base) to the enc-least root of modulus_base in
    the big field, so encodings are reproducible across runs; it and the
    subfield list are built on first read (`_embedding`), the moduli
    checks at construction.
    """

    def __init__(self, n: int, modulus_base: int | None = None,
                 modulus_big: int | None = None):
        if n < 2:
            raise ValueError("n must be at least 2")
        if n > _MAX_N:
            raise ValueError(
                f"n={n} exceeds the construction cap ({_MAX_N}); "
                "the subfield embedding enumerates 2^n elements")
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
        self._mask = (1 << m) - 1
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
            0: [1 << j for j in range(m)], n: self._power_cols(chain[n])}
        self._np_tables: dict[tuple, object] = {}  # per-tower tables, built on first use

    @functools.cached_property
    def _embedding(self) -> _Embedding:
        """The subfield GF(2^n) and the embedding of the base field into it,
        built together on the first read of `subfield`, `embed_base`,
        `to_base` or `base_logs`: the embedding search walks the subfield,
        and every command that lists the subfield also embeds."""
        n = self.n
        # the subfield as Python ints (6n may exceed 63 bits): the span of
        # its basis, doubled one basis vector at a time
        span = [0]
        for b in self._fixed_field_basis(n):
            span += [v ^ b for v in span]
        subfield = tuple(sorted(span))

        # w, the least subfield element of degree n over GF(2) (0 and 1 have
        # degree 1), and its minimal polynomial m_w, the one relation among
        # w^0..w^n: y -> w maps K = GF(2)[y]/(m_w) onto the subfield, so the
        # roots of modulus_base in the subfield are the images of its n
        # conjugate roots in K, and gamma, the enc-least of them, is the
        # image of the least conjugate. A candidate's degree is tested by
        # squarings, w^(2^(n/p)) != w for each prime p | n, before its powers
        # are built.
        steps = [n // p for p in gf2poly._prime_factors(n)]
        for w in subfield[2:]:
            z = [w]  # w^(2^k), k <= n/p for the least prime p | n
            for _ in range(max(steps)):
                z.append(self.square(z[-1]))
            if all(z[k] != w for k in steps):
                break
        powers = [1]
        for _ in range(n):
            powers.append(self.mul(powers[-1], w))
        kernel = _ColumnSolver(powers).kernel_basis
        if len(kernel) != 1:
            raise AssertionError("subfield element of degree n has no unique relation")
        m_w, to_big = kernel[0], powers[:n]
        r = gf2poly.field_root(self.modulus_base, m_w)
        conjugates = [r]
        for _ in range(n - 1):
            conjugates.append(gf2poly.mod(gf2poly.square(conjugates[-1]), m_w))
        root = min(conjugates, key=lambda c: _apply_cols(to_big, c))
        cols = []  # images of root^0..root^(n-1): gamma^0..gamma^(n-1)
        e = 1
        for _ in range(n):
            cols.append(_apply_cols(to_big, e))
            e = gf2poly.mod(gf2poly.mul(e, root), m_w)
        project = _ColumnSolver(cols)
        # n independent columns fixed by sigma^n span the n-dimensional fixed field
        if project.kernel_basis or any(self.frobenius(c, n) != c for c in cols):
            raise AssertionError("embedding image differs from the fixed field")
        return _Embedding(subfield, cols, project)

    @property
    def subfield(self) -> tuple[int, ...]:
        """The 2^n elements of the base subfield in the big field, ascending."""
        return self._embedding.subfield

    @property
    def _embed_cols(self) -> list[int]:
        """gamma^0..gamma^(n-1): the columns of `embed_base`."""
        return self._embedding.cols

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

    def _power_cols(self, z: int) -> list[int]:
        """z^0..z^(6n - 1): z^(2j) = (z^j)^2 and z^(2j + 1) = z^(2j) * z."""
        cols = [1, z]
        for j in range(2, self.big_degree):
            cols.append(self.mul(cols[-1], z) if j & 1 else self.square(cols[j >> 1]))
        return cols

    def _frob_cols(self, i: int) -> list[int]:
        """Columns of x -> x^(2^i) in the polynomial basis, cached per i.

        Column j is z^j with z = x^(2^i): i squarings, then the powers of z
        (`_power_cols`).
        """
        i %= self.big_degree
        cols = self._frob_cache.get(i)
        if cols is None:
            z = 2
            for _ in range(i):
                z = self.square(z)
            cols = self._frob_cache[i] = self._power_cols(z)
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
        """Embed a base-field encoding (n bits) into the big field."""
        if a >> self.n:
            raise ValueError("base-field encoding out of range")
        return _apply_cols(self._embed_cols, a)

    def to_base(self, x: int) -> int:
        """Inverse of embed_base; raises if x is not in the embedded subfield."""
        a = self._embedding.project.solve(x)
        if a is None:
            raise ValueError("element is not in the embedded base field")
        return a

    def base_logs(self) -> BaseLogs:
        """Discrete logs on GF(q)*, q = 2^n, to the base of its least
        generator; built on first use and kept with the numpy tables."""
        logs = self._np_tables.get(("base_logs",))
        if logs is None:
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
            span = [0]  # span[a] = embed_base(a), by doubling on the columns
            for c in self._embed_cols:
                span += [v ^ c for v in span]
            embedded = tuple(span[a] for a in exp)
            base_log: list[int | None] = [None] * q
            for k, a in enumerate(exp):
                base_log[a] = k
            logs = self._np_tables[("base_logs",)] = BaseLogs(
                tuple(exp), embedded, {x: k for k, x in enumerate(embedded)},
                tuple(base_log))
        return logs

    def subfield_nonzero(self) -> tuple[int, ...]:
        return self.subfield[1:]

    def _frob_plus_id_cols(self, k: int) -> tuple[int, ...]:
        """Columns of x -> x^(2^k) + x, whose kernel is GF(2^gcd(k, 6n))."""
        return tuple(c ^ (1 << j) for j, c in enumerate(self._frob_cols(k)))

    def _fixed_field_basis(self, bits: int) -> tuple[int, ...]:
        """A GF(2)-basis of the subfield GF(2^bits): the kernel of x^(2^bits) + x."""
        if self.big_degree % bits:
            raise ValueError("not a subfield of the tower's big field")
        basis = _ColumnSolver(self._frob_plus_id_cols(bits)).kernel_basis
        if len(basis) != bits:
            raise AssertionError("subfield dimension mismatch")
        return basis

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
        for pk in poly:
            if self.frobenius(pk, self.n) != pk:
                raise AssertionError("coefficient escaped the base field")
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

    def _byte_tables(self, cols: list[int]) -> list[np.ndarray]:
        """256-entry lookup tables per byte of input for a GF(2)-linear map."""
        m = self.big_degree
        if m > 63:
            raise ValueError("vectorized paths need encodings below 64 bits")
        cols = np.array(list(cols) + [0] * (-m % 8), dtype=np.int64).reshape(-1, 1, 8)
        return list(np.bitwise_xor.reduce(cols * _BYTE_BITS, axis=2))  # bits of v pick columns

    def frob_tables(self, i: int) -> list[np.ndarray]:
        key = ("frob", i % self.big_degree)
        tabs = self._np_tables.get(key)
        if tabs is None:
            tabs = self._byte_tables(self._frob_cols(i))
            self._np_tables[key] = tabs
        return tabs

    def mult_tables(self, c: int) -> list[np.ndarray]:
        """Byte tables of the fixed-multiplier map x -> c * x."""
        key = ("mult", c)
        tabs = self._np_tables.get(key)
        if tabs is None:
            tabs = self._byte_tables([self.mul(c, 1 << j) for j in range(self.big_degree)])
            self._np_tables[key] = tabs
        return tabs

    @staticmethod
    def apply_tables(tables: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        out = tables[0][x & 0xFF]
        for bpos in range(1, len(tables)):
            out ^= tables[bpos][(x >> (8 * bpos)) & 0xFF]
        return out

    def frobenius_vec(self, x: np.ndarray, i: int) -> np.ndarray:
        return self.apply_tables(self.frob_tables(i), x)

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise products of two int64 arrays of encodings, of one shape.

        Horner over the w-bit chunks of y, top chunk first, with
        w = min(6n, 63 - 6n): each step's shifted accumulator and product
        stay below 2^63, and its high bytes fold back top first through the
        table of `mul` without its b << 6n terms (int64 cannot hold them),
        one copy shifted to each high byte; a mask then clears those bytes.
        One chunk up to n = 5, two at n = 6..10. A chunk's carry-less
        product is 16 integer products of masks that keep every fourth bit
        (`_SLOTS`): x_i * y_j puts all its terms on bits congruent to
        i + j mod 4, at most ceil(w / 4) <= 8 on one bit, so no carry leaves
        a 4-bit slot and each slot's low bit is the XOR of its terms.
        """
        m = self.big_degree
        w = min(m, 63 - m)
        reduce = self._np_tables.get(("reduce",))
        if reduce is None:
            if m > 63:
                raise ValueError("vectorized paths need encodings below 64 bits")
            red = np.array([t & self._mask for t in self._red], dtype=np.int64)
            reduce = self._np_tables[("reduce",)] = [
                (sh, red << (sh - m)) for sh, _ in self._shifts if sh < m + w] + [(m, red)]
        xs = [x & s for s in _SLOTS]
        acc = None
        for lo in range(w * ((m - 1) // w), -1, -w):
            chunk = (y >> lo) & ((1 << w) - 1)
            ys = [chunk & s for s in _SLOTS]
            part = 0
            for r, slot in enumerate(_SLOTS):  # x_i * y_j lands on slot i + j mod 4
                part ^= (xs[0] * ys[r] ^ xs[1] * ys[r - 1]
                         ^ xs[2] * ys[r - 2] ^ xs[3] * ys[r - 3]) & slot
            acc = part if acc is None else (acc << w) ^ part
            for sh, tab in reduce:  # folds each high byte below it; the mask clears them
                acc ^= tab[(acc >> sh) & 255]
            acc &= self._mask
        return acc

    def conjugate_tables(self, cols: list[int] | tuple[int, ...]) -> np.ndarray:
        """Byte tables of x -> L(x^(2^i)) for all i < 6n at once, L the
        GF(2)-linear map with columns cols (bits of an image below 64):
        `apply_tables` of the (bytes, 256, 6n) result gives L of every
        Frobenius image along a new last axis. Not cached."""
        rows = [np.stack(self.frob_tables(0))]  # row i: row i - 1 through the squaring tables
        for _ in range(1, self.big_degree):
            rows.append(self.apply_tables(self.frob_tables(1), rows[-1]))
        fused = self.apply_tables(self._byte_tables(cols), np.stack(rows))
        return np.ascontiguousarray(np.moveaxis(fused, 0, -1))

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
