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

# each public name and the module that defines it; a name's module is
# imported the first time the name is read, so a command loads only the
# modules it runs
_EXPORTS = {
    "betti": ("BettiInputs", "BettiResult", "feasible_w23", "predicted_count", "resolve"),
    "counting": ("CountReport", "WeightedSpace", "count_cone_naive", "count_cone_weierstrass",
                 "count_projective", "weierstrass_fiber_table"),
    "curves": ("defining_polynomial", "fermat_member", "local_surface_normalized",
               "local_surface_split"),
    "errors": ("BudgetExceededError", "ConsistencyError", "InconclusiveResult"),
    "fields": ("EisensteinInt", "PrimeField", "make_field", "primitive_cube_root"),
    "hodge": ("CohomologyInputs", "GradedRingSpec", "builtin_cohomology_inputs",
              "chi_singular", "h4_sigma_total", "hodge_h3_smooth",
              "jacobian_ring_dim", "milnor_quasihomogeneous"),
    "parsing": ("ParseError", "parse_polynomial"),
    "sections": ("SectionPoint", "builtin_sections", "omega_twist", "verify_section"),
    "singular": ("ProjectivePoint", "SingularReport", "euler_check",
                 "expected_singularities", "singular_points"),
    "wpoly": ("WPolynomial",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
