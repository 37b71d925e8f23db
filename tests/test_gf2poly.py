import functools
import operator
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


def test_lowest_irreducible_skips_trinomials_at_degrees_divisible_by_8(monkeypatch):
    """Swan's theorem: every trinomial of degree 0 mod 8 is reducible, so the
    search at d = 24 tests pentanomials only."""
    tested = []
    real = gf2poly.is_irreducible

    def counting(p, chain=None):
        tested.append(p)
        return real(p, chain)

    monkeypatch.setattr(gf2poly, "is_irreducible", counting)
    assert gf2poly.lowest_irreducible(24) == gf2poly.from_exponents([24, 4, 3, 1, 0])
    assert tested and all(bin(p).count("1") == 5 for p in tested)
    assert not any(is_irreducible_two_pass((1 << 24) | (1 << k) | 1) for k in range(1, 24))


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


def _evaluate(p: int, g: int, m: int) -> int:
    """p(g) in GF(2)[y]/(m), by Horner's rule over p's bits."""
    r = 0
    for bit in bin(p)[2:]:
        r = gf2poly.mod(gf2poly.mul(r, g), m) ^ int(bit)
    return r


@pytest.mark.parametrize("factors, g", [((0,), 0b10), ((1,), 0b11), ((0, 1), 0b110)])
def test_is_generator_equals_the_order_by_enumeration(factors, g):
    """Every irreducible m of degree 2..9: g, the product of y + a over a in
    factors, generates GF(2)[y]/(m)* exactly when its powers first return to
    1 at 2^d - 1, and exactly when g is a root of a degree-d polynomial that
    is_generator calls primitive (then that is g's minimal polynomial, and
    x -> g maps GF(2)[x]/(it) onto GF(2)[y]/(m)). For g = y the root is m."""
    assert g == functools.reduce(gf2poly.mul, (0b10 | a for a in factors))
    primitive = {d: [p for p in range(1 << d, 2 << d)
                     if gf2poly.is_irreducible(p) and gf2poly.is_generator(p)]
                 for d in range(2, 10)}
    for m in range(4, 1 << 10):
        if not gf2poly.is_irreducible(m):
            continue
        d = gf2poly.degree(m)
        order, power, e = (1 << d) - 1, gf2poly.mod(g, m), 1
        while power != 1:
            power, e = gf2poly.mod(gf2poly.mul(power, g), m), e + 1
        root_of_primitive = any(_evaluate(p, g, m) == 0 for p in primitive[d])
        assert root_of_primitive == (e == order), (m, factors)
        if g == 0b10:
            assert gf2poly.is_generator(m) == (e == order), m


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


def test_field_root_is_a_root():
    """On random pairs of irreducibles of degrees 2..12."""
    rng = random.Random(12)
    for n in range(2, 13):
        irreducible = [p for p in range(1 << n, 2 << n) if gf2poly.is_irreducible(p)]
        for _ in range(4):
            f, m = rng.choice(irreducible), rng.choice(irreducible)
            r = gf2poly.field_root(f, m)
            assert r >> n == 0 and horner(f, r, m) == 0, (f, m)


def test_field_root_is_the_least_root():
    """Every pair of irreducibles f, m of one degree 2..7, against all of K:
    f(r) is the sum of r^k over the terms x^k of f."""
    for n in range(2, 8):
        irreducible = [p for p in range(1 << n, 2 << n) if gf2poly.is_irreducible(p)]
        for m in irreducible:
            powers = []  # r^0..r^n mod m for each r in K, ascending
            for r in range(1 << n):
                powers.append([1])
                for _ in range(n):
                    powers[-1].append(gf2poly.mod(gf2poly.mul(powers[-1][-1], r), m))
            for f in irreducible:
                terms = [k for k in range(n + 1) if f >> k & 1]
                roots = [r for r, pw in enumerate(powers)
                         if not functools.reduce(operator.xor, (pw[k] for k in terms))]
                assert len(roots) == n and gf2poly.field_root(f, m) == roots[0], (f, m)


def test_field_root_raises_without_a_root():
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
