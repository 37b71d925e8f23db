"""Extended irreducible binary sextic Goppa codes and their orbit counts.

Library layout:

- gf2tower: exact arithmetic in GF(2) < GF(2^n) < GF(2^(6n)), the Frobenius
  machinery, and the one GF(2) elimination, which solves linearized
  equations as cosets.
- mobius: the projective semi-linear group over GF(2^n), its action on the
  degree-6 elements, and the split of each linear orbit into 2^n + 1 affine
  classes.
- codes: Goppa and extended code construction as binary codes, on
  projective supports, and permutation-equivalence verification.
- counting: the closed-form fixed-point count, the averaged orbit count, and
  the independent oracles (census, fixed points, root counts); the census
  and fixed-point oracle scan affine classes, the points of P^4(GF(2^n)),
  keyed by the cross-ratio, an orbit invariant, and the root counts are
  GF(2) ranks.
- scan: the census's numpy half (the GF(q^3) kernel and the class scan).
- cli: the goppa-orbits command.

The package holds what the commands and the benchmark reach
(`tests/test_surface.py` checks it). The oracles that only the tests compare
against (the alternant route through transformed polynomials, the group law
of the maps, the element-level class equations) live in `tests/`.

The package itself binds no name and imports no module: each name is
imported from the module that defines it, as in
`from goppa_orbits.gf2tower import make_tower`.
"""
