"""Exact computation of the Mordell-Weil rank of an elliptic threefold.

The pipeline counts F_p-points of a degree-6 hypersurface in P(2,3,1,1,1),
assembles its cohomological invariants by exact linear algebra, solves the
trace-formula inequality over the integers, and verifies the six explicit
sections symbolically over Z[omega][s,t].
"""

import os

# ellrank does no floating-point linear algebra, so loading numpy need not
# start an OpenBLAS thread pool; this must run before numpy is first imported.
# A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .betti import BettiInputs, BettiResult, feasible_w23, predicted_count, resolve
from .counting import (CountReport, WeightedSpace, count_cone_naive,
                       count_cone_weierstrass, count_projective,
                       count_projective_burnside, weierstrass_fiber_table)
from .curves import defining_polynomial, fermat_member, local_surface_normalized, local_surface_split
from .errors import BudgetExceededError, ConsistencyError, InconclusiveResult
from .fields import EisensteinInt, PrimeField, make_field, primitive_cube_root, quadratic_character
from .hodge import (CohomologyInputs, GradedRingSpec, builtin_cohomology_inputs,
                    chi_singular, h4_sigma_total, hodge_h3_smooth,
                    jacobian_ring_dim, milnor_quasihomogeneous)
from .parsing import ParseError, parse_polynomial
from .sections import SectionPoint, builtin_sections, omega_twist, verify_section
from .singular import (ProjectivePoint, SingularReport, euler_check,
                       expected_singularities, singular_points)
from .wpoly import WPolynomial

__version__ = "0.1.0"

__all__ = [
    "BettiInputs", "BettiResult", "feasible_w23", "predicted_count", "resolve",
    "CountReport", "WeightedSpace", "count_cone_naive", "count_cone_weierstrass",
    "count_projective", "count_projective_burnside", "weierstrass_fiber_table",
    "defining_polynomial", "fermat_member", "local_surface_normalized", "local_surface_split",
    "BudgetExceededError", "ConsistencyError", "InconclusiveResult",
    "EisensteinInt", "PrimeField", "make_field", "primitive_cube_root", "quadratic_character",
    "CohomologyInputs", "GradedRingSpec", "builtin_cohomology_inputs",
    "chi_singular", "h4_sigma_total", "hodge_h3_smooth",
    "jacobian_ring_dim", "milnor_quasihomogeneous",
    "ParseError", "parse_polynomial",
    "SectionPoint", "builtin_sections", "omega_twist", "verify_section",
    "ProjectivePoint", "SingularReport", "euler_check",
    "expected_singularities", "singular_points",
    "WPolynomial",
    "__version__",
]
