"""Singular locus of a weighted projective hypersurface over F_p.

A point of the hypersurface is singular exactly when every partial derivative
of the defining polynomial vanishes there, provided the ambient space is
smooth at the point.  The ambient P(w_0..w_n) is singular precisely where the
gcd of the weights on a point's support exceeds 1, so such points are set
aside instead of being classified by the partial criterion.

Membership itself comes for free away from characteristic dividing the degree:
the weighted Euler identity sum w_i x_i dF/dx_i = d * F forces F = 0 wherever
all partials vanish, as long as p does not divide d.  It is asserted anyway,
and checked explicitly (as a filter) when p | d.

The weights of the ambient space are the polynomial's own (WPolynomial.weights).
A point is reported as a plain coordinate tuple, the lex-smallest cone
representative of its orbit; the CLI prints it as c0:c1:...:cn.
"""

from __future__ import annotations

from typing import NamedTuple

# ellrank's sources before numpy: gridcount compiles, then imports numpy
from . import DEFAULT_BUDGET, gridcount
from .errors import ConsistencyError
from .fields import PrimeField
from .wpoly import WPolynomial, euler_combination, support_gcd

import numpy as np


class SingularReport(NamedTuple):
    """Outcome of a singular-locus scan.

    Each point is the coordinate tuple of the lex-smallest cone
    representative of its orbit.  excluded_ambient holds critical points
    discarded because the ambient space itself is singular there.
    """

    points: tuple[tuple[int, ...], ...]
    excluded_ambient: tuple[tuple[int, ...], ...]


def euler_check(poly: WPolynomial) -> bool:
    """Exact symbolic test of sum w_i x_i dF/dx_i = d * F for F's own weights.

    Holds if and only if F is weighted-homogeneous (of its top degree d),
    so it doubles as a self-test of the derivative code.
    """
    d = poly.weighted_degree()
    if d is None:
        return True
    return euler_combination(poly) == poly * d


def _critical_points(field: PrimeField, poly: WPolynomial, budget: int,
                     threads: int) -> np.ndarray:
    """One lex-smallest member per orbit of the nonzero common zeros of the
    partials, the rows of an (m, n) array in lexicographic order.  The
    partials are weighted-homogeneous, so their common zeros are closed under
    the support-reduced scaling."""
    partials = [poly.partial_derivative(v) for v in poly.variables]
    constraints = [g for g in partials if g.terms]
    if not constraints:
        raise ValueError("degenerate input: every partial derivative vanishes identically")
    return gridcount.common_zeros(constraints, field, threads=threads, budget=budget,
                                  what="singular scan", weights=poly.weights)


def singular_points(field: PrimeField, poly: WPolynomial, budget: int = DEFAULT_BUDGET,
                    threads: int = 1) -> SingularReport:
    """Scan F_p^n for common zeros of all partials and report the orbits.

    The engine first solves every partial that involves one variable alone
    (for p >= 5 the built-in threefold's dF/dx = 3x^2 and dF/dy = -2y force
    x = y = 0), then walks the charts of the weighted projective space
    within that pruned grid: the first nonzero coordinate runs over the
    smallest members of the cosets of w_i-th powers, the later ones over
    their whole axes.  ``budget`` caps the sum of the chart grids, p^2 + p + 1
    for the built-in threefold, not p^3 or p^n.  Each block of the scan keeps
    one lex-smallest member per orbit as it streams in, so the scan is
    orbit-exact and holds only the representatives.
    """
    if not poly.is_weighted_homogeneous():
        raise ValueError("polynomial is not weighted-homogeneous for these weights")
    p = field.p
    d = poly.weighted_degree() or 0

    regular: list[tuple[int, ...]] = []
    ambient: list[tuple[int, ...]] = []
    critical = _critical_points(field, poly, budget, threads)
    values = gridcount.values_at(poly, field, critical)
    for pt, value in zip(map(tuple, critical.tolist()), values.tolist()):
        on_surface = value == 0
        if d % p == 0:
            if not on_surface:
                continue  # Euler shortcut unavailable, filter explicitly
        elif not on_surface:
            raise ConsistencyError(
                f"critical point {pt} is off the hypersurface although p does not divide {d}")
        if support_gcd(poly.weights, pt) > 1:
            ambient.append(pt)
        else:
            regular.append(pt)
    return SingularReport(points=tuple(regular), excluded_ambient=tuple(ambient))


def expected_singularities(field: PrimeField) -> list[tuple[int, ...]]:
    """The nine singular points of the built-in threefold over F_p, p = 1 mod 3.

    They are (0:0:1:r:0), (0:0:1:0:r) and (0:0:0:1:r) for the cube roots of
    unity r, sorted: each is already the lex-smallest member of its orbit,
    since scaling by mu multiplies the last three coordinates by mu.
    """
    if field.p % 3 != 1:
        raise ValueError(f"no primitive cube root in F_{field.p}; expected list unavailable")
    reps = sorted({pt for r in field.cube_roots
                   for pt in ((0, 0, 1, r, 0), (0, 0, 1, 0, r), (0, 0, 0, 1, r))})
    if len(reps) != 9:
        raise ConsistencyError("expected singular list does not have 9 distinct orbits")
    return reps
