"""Projective semi-linear maps over GF(2^n) and their orbits on degree-6 elements.

Each PGL(2, 2^n) orbit of a degree-6 element is the disjoint union of the
2^n + 1 affine classes {e*beta + f} of its `suborbit_representatives`, and
`pgl_orbit_array` expands an orbit element by element. Both run on the
coordinate kernel the census uses, in coordinates over GF(q^3) between
its byte tables to and from encodings: the representatives are
1/(alpha + g), by `Tower.inv_vec`, and the expansion multiplies them by
GF(2^n)* in one broadcast `Tower.mul_vec`, so the oracle serves n <= 7, as
the census does. The census in `counting` never builds an orbit: it keys
affine classes by the cross-ratio, which is constant on each orbit. These
two builders are the element-level orbit oracle the tests check the census
and the class decomposition against.

A projective point is an int: a field encoding, or infinity(ctx) = 2^(6n),
one past the largest encoding, so points stay dense and sortable. Semi-linear
maps pair an invertible 2x2 matrix over the (embedded) base field with a
Frobenius exponent; matrices are stored scalar-normalized so record
equality coincides with equality in the projective group. The group law
(composition, inverses) is a test oracle in `tests/conftest.py`: the package
only applies maps. The maps and their scalar evaluation run without numpy;
it is first imported by `suborbit_representatives` and `pgl_orbit_array`,
the two orbit builders, and they build no byte table of their own: the
tables are those of the coordinate kernel (`Tower._cubic_logs`).
"""

from __future__ import annotations

import random
import re
from typing import TYPE_CHECKING, NamedTuple

from .gf2tower import Tower, _parse_hex

if TYPE_CHECKING:
    import numpy as np

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


class SemiLinearMap(NamedTuple):
    """Normalized (matrix, Frobenius power) pair; entries are embedded base-field values."""

    a: int
    b: int
    c: int
    d: int
    frob: int


def make_map(ctx: Tower, a: int, b: int, c: int, d: int, frob: int = 0) -> SemiLinearMap:
    """Validate and scalar-normalize a semi-linear map.

    Entries must lie in the embedded base field (`Tower.to_base`) and the
    matrix must be invertible. Normalization scales by the inverse of the
    first nonzero entry, making equal projective maps structurally equal.
    """
    entries = (a, b, c, d)
    try:
        for e in entries:
            ctx.to_base(e)
    except ValueError as exc:
        raise ValueError("matrix entries must lie in the embedded base field") from exc
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


def suborbit_representatives(ctx: Tower, alpha: int | np.ndarray) -> np.ndarray:
    """Representatives of the 2^n + 1 affine suborbits partitioning the orbit
    of alpha, as an int64 array: alpha, then 1/(alpha + g) for g in the
    subfield, ascending, by `Tower.inv_vec` in coordinates over GF(q^3)
    (n <= 7). For an array of alphas, one row per alpha; each alpha must
    have degree 6 (`Tower.is_degree_six`)."""
    import numpy as np
    alpha = np.asarray(alpha, dtype=np.int64)[..., None]
    if not all(map(ctx.is_degree_six, alpha.ravel().tolist())):
        raise ValueError("element must have degree 6 over the base field")
    coords, out, *_ = ctx._cubic_logs
    z = Tower.apply_tables(coords, alpha ^ np.array(ctx.subfield, dtype=np.int64))
    return np.concatenate([alpha, Tower.apply_tables(out, ctx.inv_vec(z))], axis=-1)


def pgl_orbit_array(ctx: Tower, alpha: int) -> np.ndarray:
    """The full projective-linear orbit of alpha as a flat int64 array.

    The element-level expansion of the affine-class decomposition: the
    2^n + 1 suborbit representatives, then e*rep + f for e in GF(2^n)*
    (outermost), rep, and f in GF(2^n) (innermost), the products e*rep in
    one broadcast `Tower.mul_vec` in coordinates over GF(q^3). Size
    2^(3n) - 2^n; no duplicates.
    """
    import numpy as np
    coords, out, *_ = ctx._cubic_logs
    reps = Tower.apply_tables(coords, suborbit_representatives(ctx, alpha))
    sub = np.array(ctx.subfield, dtype=np.int64)
    multiples = ctx.mul_vec(reps[None, :], Tower.apply_tables(coords, sub[1:, None]))
    return (Tower.apply_tables(out, multiples)[:, :, None] ^ sub).reshape(-1)
