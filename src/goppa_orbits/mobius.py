"""Projective semi-linear maps over GF(2^n) and their orbits on degree-6 elements.

Each PGL(2, 2^n) orbit of a degree-6 element is the disjoint union of the
2^n + 1 affine classes {e*beta + f} of its `suborbit_representatives`; the
census and the fixed-point oracle in `counting` work on those classes.
`pgl_orbit_array` expands an orbit element by element; the tests check the
class decomposition against it.

A projective point is an int: a field encoding, or infinity(ctx) = 2^(6n),
one past the largest encoding, so points stay dense and sortable. Semi-linear
maps pair an invertible 2x2 matrix over the (embedded) base field with a
Frobenius exponent; matrices are stored scalar-normalized so dataclass
equality coincides with equality in the projective group. The group law
(composition, inverses) is a test oracle in `tests/conftest.py`: the package
only applies maps.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np

from .gf2tower import Tower, _parse_hex

# the Frobenius power of a map string: `int()` would also take "+", "_",
# surrounding space and non-ASCII digits
_POWER = re.compile(r"-?[0-9]+")

__all__ = [
    "infinity",
    "SemiLinearMap",
    "make_map",
    "random_map",
    "parse_map",
    "format_map",
    "apply_map",
    "random_degree_six",
    "suborbit_representatives",
    "pgl_orbit_array",
]


def infinity(ctx: Tower) -> int:
    """The point at infinity on the projective line over the big field."""
    return 1 << ctx.big_degree


@dataclass(frozen=True)
class SemiLinearMap:
    """Normalized (matrix, Frobenius power) pair; entries are embedded base-field values."""

    a: int
    b: int
    c: int
    d: int
    frob: int


def make_map(ctx: Tower, a: int, b: int, c: int, d: int, frob: int = 0) -> SemiLinearMap:
    """Validate and scalar-normalize a semi-linear map.

    Entries must lie in the embedded base field and the matrix must be
    invertible. Normalization scales by the inverse of the first nonzero
    entry, making equal projective maps structurally equal.
    """
    entries = (a, b, c, d)
    for e in entries:
        if e and ctx.frobenius(e, ctx.n) != e:
            raise ValueError("matrix entries must lie in the embedded base field")
    det = ctx.mul(a, d) ^ ctx.mul(b, c)
    if det == 0:
        raise ValueError("matrix is singular")
    scale = ctx.inv(next(e for e in entries if e))
    a, b, c, d = (ctx.mul(scale, e) for e in entries)
    return SemiLinearMap(a, b, c, d, frob % ctx.big_degree)


def random_map(ctx: Tower, rng: random.Random) -> SemiLinearMap:
    """Uniform-ish random semi-linear map from a seeded generator."""
    while True:
        a, b, c, d = (ctx.embed_base(rng.randrange(1 << ctx.n)) for _ in range(4))
        if ctx.mul(a, d) ^ ctx.mul(b, c):
            return make_map(ctx, a, b, c, d, rng.randrange(ctx.big_degree))


def format_map(ctx: Tower, m: SemiLinearMap) -> str:
    """Serialize as "a,b,c,d;i" with base-field hex entries."""
    parts = ",".join(ctx.base_to_hex(ctx.to_base(e)) for e in (m.a, m.b, m.c, m.d))
    return f"{parts};{m.frob}"


def parse_map(ctx: Tower, text: str) -> SemiLinearMap:
    """Parse "a,b,c,d;i" with base-field hex entries and a decimal Frobenius
    power (ASCII digits, optionally negative; 0 when omitted)."""
    try:
        mat, _, fr = text.partition(";")
        a, b, c, d = (ctx.embed_base(_parse_hex(h)) for h in mat.split(","))
        if fr and not _POWER.fullmatch(fr):
            raise ValueError(f"bad Frobenius power {fr!r}")
        frob = int(fr) if fr else 0
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad map string {text!r}: expected 'a,b,c,d;i'") from exc
    return make_map(ctx, a, b, c, d, frob)


def apply_map(ctx: Tower, m: SemiLinearMap, zeta: int) -> int:
    """Evaluate (a*s + b) / (c*s + d) at s = zeta^(2^frob), with 1/0 = inf, 1/inf = 0."""
    inf = infinity(ctx)
    if zeta != inf:
        zeta = ctx.frobenius(zeta, m.frob)
    if zeta == inf:
        return ctx.mul(m.a, ctx.inv(m.c)) if m.c else inf
    den = ctx.mul(m.c, zeta) ^ m.d
    if den == 0:
        return inf
    return ctx.mul(ctx.mul(m.a, zeta) ^ m.b, ctx.inv(den))


def random_degree_six(ctx: Tower, rng: random.Random) -> int:
    """Rejection-sample an element of degree 6 over the base field."""
    while True:
        x = rng.getrandbits(ctx.big_degree)
        if ctx.is_degree_six(x):
            return x


# ----------------------------------------------------------------- orbits


def _require_degree_six(ctx: Tower, x: np.ndarray) -> None:
    n = ctx.n
    if ((ctx.frobenius_vec(x, 2 * n) == x) | (ctx.frobenius_vec(x, 3 * n) == x)).any():
        raise ValueError("element must have degree 6 over the base field")


def suborbit_representatives(ctx: Tower, alpha: int | np.ndarray) -> np.ndarray:
    """Representatives of the 2^n + 1 affine suborbits partitioning the orbit
    of alpha, as an int64 array: alpha, then z^(q + q^2 + q^3 + q^4 + q^5)
    for z = alpha + g, g in the subfield, q = 2^n. That power is N(z) / z
    with the norm N(z) = z^(1 + q + ... + q^5) in GF(q)*, so it lies in the
    affine class of 1/(alpha + g). For an array of alphas, one row per
    alpha; three `Tower.mul_vec` passes and four Frobenius lookups in all."""
    alpha = np.asarray(alpha, dtype=np.int64)[..., None]
    _require_degree_six(ctx, alpha)
    n = ctx.n
    z = alpha ^ np.array(ctx.subfield, dtype=np.int64)
    zq = ctx.frobenius_vec(z, n)
    z2 = ctx.mul_vec(zq, ctx.frobenius_vec(zq, n))  # z^(q + q^2)
    z4 = ctx.mul_vec(z2, ctx.frobenius_vec(z2, 2 * n))  # z^(q + ... + q^4)
    return np.concatenate([alpha, ctx.mul_vec(z4, ctx.frobenius_vec(z, 5 * n))], axis=-1)


def pgl_orbit_array(ctx: Tower, alpha: int) -> np.ndarray:
    """The full projective-linear orbit of alpha as a flat int64 array.

    The element-level expansion of the affine-class decomposition: the
    2^n + 1 suborbit representatives, then e*rep + f for e in GF(2^n)*
    (outermost), rep, and f in GF(2^n) (innermost), multiplying by e through
    `Tower.mult_tables`. Size 2^(3n) - 2^n; no duplicates.
    """
    reps = suborbit_representatives(ctx, alpha)
    multiples = np.stack([ctx.apply_tables(ctx.mult_tables(e), reps)
                          for e in ctx.subfield_nonzero()])
    return (multiples[:, :, None] ^ np.array(ctx.subfield, dtype=np.int64)).reshape(-1)
