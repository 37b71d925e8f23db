"""Polynomials over GF(2) packed into Python ints (bit k = coefficient of x^k).

A field GF(2)[y]/(m), m irreducible, is held the same way: its elements are
the remainders, products are `mod(mul(a, b), m)` and `inverse` is the
shift-and-add extended Euclid. `field_root` finds the least root in such a
field of a polynomial with GF(2) coefficients, by an ascending scan, which
is how `Tower` embeds its base field, and `is_generator` tests whether y
generates the field's multiplicative group, which is how `scan._cubic_logs`
picks the model whose y is the base of its discrete logs on GF(q^3).
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = [
    "degree",
    "mul",
    "square",
    "mod",
    "gcd",
    "inverse",
    "is_irreducible",
    "is_generator",
    "lowest_irreducible",
    "field_root",
    "exponents",
    "from_exponents",
]


def degree(p: int) -> int:
    """Degree of p, with degree(0) = -1."""
    return p.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carryless product of two GF(2) polynomials.

    A 4-bit window: w[k] is the product of a with the nibble k, so each
    nibble of the shorter factor costs one shifted XOR.
    """
    if a.bit_length() < b.bit_length():
        a, b = b, a
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a8 = a << 3
    w = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
         a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a4 ^ a, a8 ^ a4 ^ a2, a8 ^ a4 ^ a3)
    r = 0
    s = 0
    while b:
        r ^= w[b & 15] << s
        b >>= 4
        s += 4
    return r


# b with bit i moved to bit 2i: the binary digits of b read in base 4
_SPREAD = tuple(int(f"{b:b}", 4) for b in range(256))


def square(a: int) -> int:
    """mul(a, a), moving bit i of a to bit 2i a byte at a time: a third of
    the windowed product's time, for the squaring chains of
    `is_irreducible` and for `Tower.square`."""
    r = s = 0
    while a:
        r |= _SPREAD[a & 255] << s
        a >>= 8
        s += 16
    return r


def mod(p: int, m: int) -> int:
    """Remainder of p modulo nonzero m."""
    if m == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dm = m.bit_length()
    while (dp := p.bit_length()) >= dm:
        p ^= m << (dp - dm)
    return p


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def inverse(x: int, m: int) -> int:
    """x^-1 modulo m, by the shift-and-add extended Euclid; the invariants
    are g1*x = u and g2*x = v (mod m)."""
    if x == 0:
        raise ZeroDivisionError("inverse of zero")
    u, v = x, m
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v = v, u
            g1, g2 = g2, g1
            j = -j
        u ^= v << j
        g1 ^= g2 << j
        if u == 0:  # gcd(x, m) != 1; without this check the loop never ends
            raise AssertionError("modulus not irreducible")
    return g1


def _prime_factors(k: int) -> list[int]:
    out = []
    f = 2
    while f * f <= k:
        if k % f == 0:
            out.append(f)
            while k % f == 0:
                k //= f
        f += 1
    if k > 1:
        out.append(k)
    return out


def is_irreducible(p: int, chain: list[int] | None = None) -> bool:
    """Irreducibility over GF(2) via the Frobenius fixed-point criterion:
    x^(2^d) = x mod p, and gcd(x^(2^(d/q)) + x, p) = 1 for each prime q | d,
    all read off one chain of d squarings. A caller that already holds the
    chain x^(2^i) mod p, i = 0..d (a `Tower` squares it with its reduction
    table), passes it in."""
    d = degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (p & 1):
        return False
    if chain is None:  # x^(2^i) mod p, i = 0..d, by d modular squarings
        chain = [mod(2, p)]
        for _ in range(d):
            chain.append(mod(square(chain[-1]), p))
    if chain[d] != 2:
        return False
    for q in _prime_factors(d):
        if gcd(chain[d // q] ^ 2, p) != 1:
            return False
    return True


def is_generator(m: int) -> bool:
    """Whether y generates the multiplicative group of GF(2)[y]/(m), m
    irreducible of degree d: whether m is primitive. Tests
    y^((2^d - 1)/p) != 1 for each prime p dividing 2^d - 1, each power by
    squarings and products by y, a shift and reduce, on d-bit integers."""
    d = degree(m)
    order = (1 << d) - 1
    for p in _prime_factors(order):
        r = 1
        for bit in bin(order // p)[2:]:
            r = mod(square(r), m)
            if bit == "1":
                r <<= 1
                if r >> d:
                    r ^= m
        if r == 1:
            return False
    return True


def _ascending_masks(w: int, top: int) -> Iterator[int]:
    """Masks of w bits among bits 1..top - 1, in ascending order: by top bit
    first, then by the masks below it (colex order), generated lazily."""
    if w == 0:
        yield 0
        return
    for t in range(w, top):
        for low in _ascending_masks(w - 1, t):
            yield (1 << t) | low


def lowest_irreducible(d: int) -> int:
    """Deterministic irreducible of degree d: fewest terms, then least value.

    It defines the default moduli of a tower: `gf2tower._MODULI` holds its
    picks for every degree a tower asks for, and the tests check that table
    against it, so no tower runs this search.

    Candidates must have the constant term and an odd number of interior
    terms (an even total term count has 1 as a root). At d = 0 mod 8 every
    trinomial is reducible (Swan 1962, Pacific J. Math. 12), so the search
    starts at pentanomials there. The interior masks of each weight come in
    ascending order without being listed, so the search stops at the first
    irreducible: at d = 96 it tests 118 of the 138415 pentanomials.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return 0b10  # x
    for w in range(3 if d % 8 == 0 else 1, d, 2):
        for mid in _ascending_masks(w, d):
            p = (1 << d) | mid | 1
            if is_irreducible(p):
                return p
    raise AssertionError(f"no irreducible of degree {d} found")


def field_root(f: int, m: int) -> int:
    """The least root of f in the field K = GF(2)[y]/(m), f and m irreducible
    of one degree n, so f splits into n distinct linear factors over K.

    An ascending scan of K: f(r) by Horner, each step a product with r read
    off r's n columns r * y^j mod m. Raises ValueError when it finds none.
    """
    n, d = degree(m), degree(f)
    top = 1 << n
    for r in range(top):
        cols = []  # r * y^j mod m, j < n: one shift and reduce each
        c = r
        for _ in range(n):
            cols.append(c)
            c <<= 1
            if c & top:
                c ^= m
        acc = 0
        for k in range(d, -1, -1):  # Horner, multiplying by r on its columns
            prod = 0
            j = 0
            while acc:
                if acc & 1:
                    prod ^= cols[j]
                acc >>= 1
                j += 1
            acc = prod ^ ((f >> k) & 1)
        if acc == 0:
            return r
    raise ValueError("the polynomial has no root in the field")


def exponents(p: int) -> list[int]:
    """Exponents of the nonzero terms, descending."""
    return [k for k in range(degree(p), -1, -1) if (p >> k) & 1]


def from_exponents(exps: list[int]) -> int:
    p = 0
    for e in exps:
        p |= 1 << e
    return p
