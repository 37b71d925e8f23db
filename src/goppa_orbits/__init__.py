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
- counting: closed-form fixed-point counts, the averaged orbit bound, and
  the independent oracles (census, fixed points, root counts); the census
  and fixed-point oracle index affine classes as points of P^4(GF(2^n)), the
  linear root counts are GF(2) ranks, and eq_41 is counted by GF(2)
  polynomial gcds.
- cli: the goppa-orbits command.

The package holds what the commands and the benchmark reach
(`tests/test_surface.py` checks it). The oracles that only the tests compare
against (the alternant route through transformed polynomials, the group law
of the maps, the element-level class equations) live in `tests/`.
"""

from .gf2tower import Tower, make_tower, solve_affine_linearized
from .mobius import (
    SemiLinearMap,
    apply_map,
    infinity,
    make_map,
    random_degree_six,
)
from .codes import (
    BinaryCode,
    check_extended_equivalence,
    extend_code,
    extended_goppa_code,
    goppa_code,
    weight_enumerator,
)
from .counting import (
    InfeasibleError,
    OrbitCensus,
    burnside_bound,
    closed_form_fixed_points,
    fixed_point_oracle,
    global_orbit_census,
    root_count_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "Tower", "make_tower", "solve_affine_linearized",
    "SemiLinearMap", "make_map", "apply_map", "infinity", "random_degree_six",
    "BinaryCode", "goppa_code", "extended_goppa_code", "extend_code",
    "check_extended_equivalence", "weight_enumerator",
    "burnside_bound", "closed_form_fixed_points", "fixed_point_oracle",
    "global_orbit_census", "root_count_oracle",
    "OrbitCensus", "InfeasibleError",
]
