import random

import pytest

from goppa_orbits import gf2poly

from conftest import is_irreducible_two_pass, lowest_irreducible_by_sort


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


def test_square_is_the_product_with_itself():
    rng = random.Random(2)
    for bits in (0, 1, 7, 8, 9, 24, 96, 200):
        for _ in range(20):
            a = rng.getrandbits(bits) if bits else 0
            assert gf2poly.square(a) == gf2poly.mul(a, a)


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


def test_is_irreducible_equals_the_two_pass_test():
    """Every polynomial of degree <= 12, and random ones up to degree 40."""
    for p in range(1 << 13):
        assert gf2poly.is_irreducible(p) == is_irreducible_two_pass(p), p
    rng = random.Random(40)
    for _ in range(400):
        p = rng.getrandbits(rng.randrange(14, 41)) | 1
        assert gf2poly.is_irreducible(p) == is_irreducible_two_pass(p), p


def test_lowest_irreducible_is_unchanged_up_to_degree_96():
    for d in range(2, 97):
        want = next((1 << d) | mid | 1 for w in range(1, d, 2)
                    for mid in gf2poly._ascending_masks(w, d)
                    if is_irreducible_two_pass((1 << d) | mid | 1))
        assert gf2poly.lowest_irreducible(d) == want, d


def horner(f, r, m):
    acc = 0
    for k in range(gf2poly.degree(f), -1, -1):
        acc = gf2poly.mod(gf2poly.mul(acc, r), m) ^ ((f >> k) & 1)
    return acc


@pytest.mark.parametrize("split_from", [0, 99], ids=["splitting", "scan"])
def test_field_root_is_a_root(monkeypatch, split_from):
    """Both routes, on random pairs of irreducibles of degrees 2..12; the
    scan gives the least root."""
    monkeypatch.setattr(gf2poly, "_SPLIT_FROM_DEGREE", split_from)
    rng = random.Random(12)
    for n in range(2, 13):
        irreducible = [p for p in range(1 << n, 2 << n) if gf2poly.is_irreducible(p)]
        for _ in range(4):
            f, m = rng.choice(irreducible), rng.choice(irreducible)
            r = gf2poly.field_root(f, m)
            assert r >> n == 0 and horner(f, r, m) == 0, (f, m)
            if split_from:
                assert all(horner(f, s, m) for s in range(r)), (f, m)


@pytest.mark.parametrize("split_from", [0, 99], ids=["splitting", "scan"])
def test_field_root_raises_without_a_root(monkeypatch, split_from):
    monkeypatch.setattr(gf2poly, "_SPLIT_FROM_DEGREE", split_from)
    with pytest.raises(ValueError, match="no root"):
        gf2poly.field_root(0b1011, 0b10011)  # GF(8) is not inside GF(16)
    with pytest.raises(ValueError, match="no root"):
        gf2poly.field_root(0b111, 0b100101)  # nor GF(4) inside GF(32)
    with pytest.raises(ValueError, match="no root"):
        gf2poly.field_root(0b1000011011, 0b10000011)  # nor GF(2^9) inside GF(2^7)


def test_inverse():
    m = gf2poly.lowest_irreducible(30)
    rng = random.Random(3)
    for _ in range(100):
        x = rng.getrandbits(30) or 1
        assert gf2poly.mod(gf2poly.mul(x, gf2poly.inverse(x, m)), m) == 1
    with pytest.raises(ZeroDivisionError):
        gf2poly.inverse(0, m)
