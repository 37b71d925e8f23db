"""Extended irreducible binary sextic Goppa codes and their orbit counts.

Library layout:

- gf2tower: exact arithmetic in GF(2) < GF(2^n) < GF(2^(6n)), Frobenius and
  trace machinery, and the one GF(2) elimination, which solves linearized
  equations as cosets.
- mobius: the projective semi-linear group over GF(2^n), its action on the
  degree-6 elements, and the split of each linear orbit into 2^n + 1 affine
  classes.
- codes: alternant / Goppa / extended code construction as binary codes
  (one alternant builder, on projective supports), polynomial transforms
  and permutation-equivalence verification.
- counting: closed-form fixed-point counts, the averaged orbit bound, and
  the independent oracles (census, root counts, class equations); the
  census, fixed-point oracle and class equations index affine classes as
  points of P^4(GF(2^n)), the linear root counts are GF(2) ranks, and eq_41
  is counted by GF(2) polynomial gcds.
- cli: the goppa-orbits command.
"""

from .gf2tower import Tower, make_tower, solve_affine_linearized
from .mobius import (
    SemiLinearMap,
    apply_map,
    compose,
    infinity,
    inverse,
    make_map,
    random_degree_six,
)
from .codes import (
    BinaryCode,
    GoppaInstance,
    check_extended_equivalence,
    extend_code,
    extended_goppa_code,
    goppa_code,
    goppa_instance,
    transform_polynomial,
    weight_enumerator,
)
from .counting import (
    InfeasibleError,
    OrbitCensus,
    burnside_bound,
    class_equation_check,
    closed_form_fixed_points,
    fixed_point_oracle,
    global_orbit_census,
    root_count_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "Tower", "make_tower", "solve_affine_linearized",
    "SemiLinearMap", "make_map", "apply_map", "compose", "inverse",
    "infinity", "random_degree_six",
    "BinaryCode", "GoppaInstance", "goppa_instance", "goppa_code",
    "extended_goppa_code", "extend_code", "transform_polynomial",
    "check_extended_equivalence", "weight_enumerator",
    "burnside_bound", "closed_form_fixed_points", "fixed_point_oracle",
    "global_orbit_census", "root_count_oracle", "class_equation_check",
    "OrbitCensus", "InfeasibleError",
]
