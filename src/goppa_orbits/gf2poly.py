"""Polynomials over GF(2) packed into Python ints (bit k = coefficient of x^k).

A field GF(2)[y]/(m), m irreducible, is held the same way: its elements are
the remainders, products are `mod(mul(a, b), m)` and `inverse` is the
shift-and-add extended Euclid. `field_root` finds a root in such a field of
a polynomial with GF(2) coefficients, which is how `Tower` embeds its base
field: an ascending scan below degree `_SPLIT_FROM_DEGREE`, trace
splitting (Berlekamp's trace algorithm) from there on.
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
    `is_irreducible` and `field_root`."""
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


def _frobenius_chain(p: int, k: int) -> list[int]:
    """x^(2^i) mod p for i = 0..k, by k modular squarings."""
    r = mod(2, p)
    chain = [r]
    for _ in range(k):
        r = mod(square(r), p)
        chain.append(r)
    return chain


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


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2) via the Frobenius fixed-point criterion:
    x^(2^d) = x mod p, and gcd(x^(2^(d/q)) + x, p) = 1 for each prime q | d,
    all read off one chain of d squarings."""
    d = degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (p & 1):
        return False
    chain = _frobenius_chain(p, d)
    if chain[d] != 2:
        return False
    for q in _prime_factors(d):
        if gcd(chain[d // q] ^ 2, p) != 1:
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

    Candidates must have the constant term and an odd number of interior
    terms (an even total term count has 1 as a root). The interior masks of
    each weight come in ascending order without being listed, so the search
    stops at the first irreducible: at d = 96 it tests the 95 trinomials and
    118 of the 138415 pentanomials.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return 0b10  # x
    for w in range(1, d, 2):
        for mid in _ascending_masks(w, d):
            p = (1 << d) | mid | 1
            if is_irreducible(p):
                return p
    raise AssertionError(f"no irreducible of degree {d} found")


_SPLIT_FROM_DEGREE = 7  # below it, the 2^n / (n + 1) scanned candidates cost less


def field_root(f: int, m: int) -> int:
    """A root of f in the field K = GF(2)[y]/(m), f and m irreducible of one
    degree n, so f splits into n distinct linear factors over K.

    Below degree `_SPLIT_FROM_DEGREE` it is the least root, by an ascending
    scan of K. From there on it is the root that trace splitting isolates:
    with x^(2^i) mod f read off one chain (f has GF(2) coefficients), the
    trace T_j = sum_i (y^j)^(2^i) x^(2^i) mod f costs n squarings in K, and
    gcd(h, T_j) keeps the roots r of h with Tr(y^j r) = 0. No j > 0 leaves
    all n conjugates on one side, and the trace form is nondegenerate, so
    j = 1..n - 1 isolate one root. Every factor kept divides f, so a root
    it returns is a root. Raises ValueError when it finds none.
    """
    n, d = degree(m), degree(f)
    if n < _SPLIT_FROM_DEGREE:
        for r in range(1 << n):
            acc = 0
            for k in range(d, -1, -1):
                acc = mod(mul(acc, r), m) ^ ((f >> k) & 1)
            if acc == 0:
                return r
        raise ValueError("the polynomial has no root in the field")
    h = [(f >> k) & 1 for k in range(d + 1)]  # monic, ascending
    chain = _frobenius_chain(f, n - 1)
    for j in range(1, n):
        trace = [0] * d
        b = 1 << j
        for c in chain:
            k = 0
            while c:
                if c & 1:
                    trace[k] ^= b
                c >>= 1
                k += 1
            b = mod(square(b), m)
        g = _poly_gcd(h, trace, m)
        if 1 < len(g) < len(h):
            h = g
            if len(h) == 2:  # x + h[0]
                return h[0]
    raise ValueError("the polynomial has no root in the field")


def _poly_monic(a: list[int], m: int) -> list[int]:
    """a over GF(2)[y]/(m), coefficients ascending, without its zero top
    coefficients and scaled to leading coefficient 1 ([] for zero)."""
    while a and not a[-1]:
        a.pop()
    if a and a[-1] != 1:
        lead = inverse(a[-1], m)
        a = [mod(mul(lead, c), m) for c in a]
    return a


def _poly_gcd(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd of two polynomials over GF(2)[y]/(m), a monic."""
    b = _poly_monic(list(b), m)
    while b:
        a = list(a)
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):  # a mod b, b monic
            c = a[top]
            if c:
                for k in range(db):
                    a[top - db + k] ^= mod(mul(c, b[k]), m)
        a, b = b, _poly_monic(a[:db], m)
    return a


def exponents(p: int) -> list[int]:
    """Exponents of the nonzero terms, descending."""
    return [k for k in range(degree(p), -1, -1) if (p >> k) & 1]


def from_exponents(exps: list[int]) -> int:
    p = 0
    for e in exps:
        p |= 1 << e
    return p
