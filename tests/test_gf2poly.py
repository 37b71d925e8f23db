import random

import pytest

from goppa_orbits import gf2poly

from conftest import lowest_irreducible_by_sort


def test_degree():
    assert gf2poly.degree(0) == -1
    assert gf2poly.degree(1) == 0
    assert gf2poly.degree(0b1101) == 3


def test_mul_divmod_roundtrip():
    """Division with remainder: mod(q*m + r, m) == r whenever deg r < deg m."""
    rng = random.Random(1)
    for _ in range(200):
        q = rng.getrandbits(20)
        m = rng.getrandbits(20) | (1 << 20)
        r = rng.getrandbits(20)
        assert gf2poly.mod(gf2poly.mul(q, m) ^ r, m) == r


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        gf2poly.mod(5, 0)


@pytest.mark.parametrize("p,expect", [
    (0b111, True),        # x^2+x+1
    (0b1011, True),       # x^3+x+1
    (0b100011, False),    # x^5+x+1 = (x^2+x+1)(x^3+x^2+1)
    (0b100101, True),     # x^5+x^2+1
    (0b10101, False),     # x^4+x^2+1 = (x^2+x+1)^2
    (0b11111, True),      # x^4+x^3+x^2+x+1
    (0b110, False),       # x^2+x has root 0
])
def test_is_irreducible(p, expect):
    assert gf2poly.is_irreducible(p) is expect


@pytest.mark.parametrize("d,expect", [
    (1, 0b10),
    (2, 0b111),
    (5, 0b100101),
    (12, (1 << 12) | (1 << 3) | 1),
    (30, (1 << 30) | 0b11),
])
def test_lowest_irreducible(d, expect):
    got = gf2poly.lowest_irreducible(d)
    assert got == expect
    assert gf2poly.is_irreducible(got)


def test_lowest_irreducible_is_minimal_weight_then_value():
    # every degree-8 trinomial is reducible (weight jumps to 5)
    p8 = gf2poly.lowest_irreducible(8)
    assert bin(p8).count("1") == 5
    for k in range(1, 8):
        assert not gf2poly.is_irreducible((1 << 8) | (1 << k) | 1)


def test_default_moduli_match_the_sort_then_scan_search():
    # every default modulus of a buildable tower: degrees n and 6n, 2 <= n <= 16
    for d in sorted({k for n in range(2, 17) for k in (n, 6 * n)}):
        assert gf2poly.lowest_irreducible(d) == lowest_irreducible_by_sort(d), d


def test_exponents_roundtrip():
    p = (1 << 30) | (1 << 1) | 1
    exps = gf2poly.exponents(p)
    assert exps == [30, 1, 0]
    assert gf2poly.from_exponents(exps) == p
