"""Polynomials over GF(2) packed into Python ints (bit k = coefficient of x^k)."""

from __future__ import annotations

from itertools import combinations

__all__ = [
    "degree",
    "mul",
    "mod",
    "gcd",
    "is_irreducible",
    "lowest_irreducible",
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


def _pow2_frobenius(k: int, m: int) -> int:
    """x^(2^k) mod m by k modular squarings."""
    r = mod(2, m)
    for _ in range(k):
        r = mod(mul(r, r), m)
    return r


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
    """Irreducibility over GF(2) via the Frobenius fixed-point criterion."""
    d = degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (p & 1):
        return False
    if _pow2_frobenius(d, p) != 2:
        return False
    for q in _prime_factors(d):
        if gcd(_pow2_frobenius(d // q, p) ^ 2, p) != 1:
            return False
    return True


def lowest_irreducible(d: int) -> int:
    """Deterministic irreducible of degree d: fewest terms, then least value.

    Candidates must have the constant term and an odd number of interior
    terms (an even total term count has 1 as a root).
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return 0b10  # x
    for w in range(1, d, 2):
        masks = sorted(
            sum(1 << i for i in comb) for comb in combinations(range(1, d), w)
        )
        for mid in masks:
            p = (1 << d) | mid | 1
            if is_irreducible(p):
                return p
    raise AssertionError(f"no irreducible of degree {d} found")


def exponents(p: int) -> list[int]:
    """Exponents of the nonzero terms, descending."""
    return [k for k in range(degree(p), -1, -1) if (p >> k) & 1]


def from_exponents(exps: list[int]) -> int:
    p = 0
    for e in exps:
        p |= 1 << e
    return p
