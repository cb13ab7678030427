"""Cohomological inputs by exact linear algebra.

The graded pieces of the Jacobian ring R = Q[x_0..x_n]/(dF/dx_0, ..., dF/dx_n)
of a quasi-smooth weighted-homogeneous F compute primitive Hodge numbers:

  * for the local surface -y^2 + x^3 - s1^3 + t1^2
    (curves.local_surface_normalized), the degree-2 piece is 2-dimensional,
    so h^2 of the surface is 2 + 1 = 3;
  * for a quasi-smooth degree-d threefold in weighted P^4 with weights w,
    h^{3-q,q} = dim R_((q+1)d - sum(w)), q = 0..3, and duality of the
    Jacobian ring (dim R_k = dim R_(s-k), s = sum(d - 2 w_i)) pairs q with
    3 - q, so h^3 = 2 * (dim R_(d - sum(w)) + dim R_(2d - sum(w))).

dim R_k is (number of weighted-degree-k monomials) minus the rank of the
degree-k piece of the Jacobian ideal.  Every member, diagonal or not, takes
the same route: the ideal piece becomes sparse integer rows, one per shifted
partial, whose entries are the partial's integer coefficients as they stand,
and its rank over Q comes from fraction-free elimination (no tolerances
exist anywhere; dimensions are integers).

Milnor numbers of weighted-homogeneous isolated singularities come from the
product formula mu = prod(d / w_i - 1) = prod(d - w_i) / prod(w_i),
evaluated in integers; the Euler characteristic of the
singular member is chi of the smooth member plus the sum of the Milnor
numbers of its singular points.  Even Betti numbers of smooth members of this
family are 1 in each of degrees 0, 2, 4, 6 and are not recomputed.
"""

from __future__ import annotations

import warnings
from math import gcd, prod
from operator import add
from typing import Iterable, NamedTuple

from .curves import (SURFACE_WEIGHTS, THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS,
                     defining_polynomial, fermat_member, local_surface_normalized)
from .fields import make_field
from .wpoly import WPolynomial

# last: gridcount imports numpy, so the sources above compile before it
from . import gridcount

# The prime of the quasi-smoothness spot check, and the largest grid p^n it
# still enumerates.
SPOT_CHECK_PRIME = 7
SPOT_CHECK_MAX_GRID = 150_000
# Most singular points the built-in threefold's inputs are assembled for.
# They lie over the cusps of the plane sextic base, which number at most
# nine: by Pluecker, kappa cusps leave class 30 - 3 kappa, and the dual of a
# smooth plane cubic reaches kappa = 9.
MAX_SINGULAR_POINTS = 9


class GradedRingSpec:
    """A weighted-homogeneous polynomial whose Jacobian ring is to be graded.

    Quasi-smoothness (partials vanish simultaneously only at the origin) is
    assumed for user-supplied polynomials, not verified; hodge_h3_smooth runs
    a finite-field spot check and warns.  The ranks are taken over Q, so a
    polynomial in which an omega part survives is refused; one whose omega
    parts cancel, as in omega^3, has int coefficients and is accepted.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: WPolynomial):
        if not poly.terms:
            raise ValueError("zero polynomial has no Jacobian ring grading")
        if not poly.is_weighted_homogeneous():
            raise ValueError("polynomial must be weighted-homogeneous")
        if poly.has_eisenstein_coefficients():
            raise ValueError("Jacobian ring dimensions are computed over the rationals")
        self.poly = poly

    @property
    def weights(self) -> tuple[int, ...]:
        return self.poly.weights

    @property
    def degree(self) -> int:
        return self.poly.weighted_degree() or 0


def monomials_of_weighted_degree(weights: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """All exponent tuples with sum(w_i * e_i) = k, lexicographic order."""
    if k < 0 or not weights:
        return [()] if k == 0 else []
    *head, last = weights
    prefixes: list[tuple[tuple[int, ...], int]] = [((), k)]
    for w in head:
        prefixes = [(m + (e,), r - e * w) for m, r in prefixes for e in range(r // w + 1)]
    return [m + (r // last,) for m, r in prefixes if r % last == 0]


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows {column: nonzero entry}.

    Integer elimination keyed by leading column: a row whose leading
    column already has a pivot becomes a*row - b*pivot (divided by the gcd of
    its entries), which clears that column; a row that reaches a free leading
    column becomes its pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            reduced = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                x = reduced.get(c, 0) - b * v
                if x:
                    reduced[c] = x
                else:
                    del reduced[c]
            g = gcd(*reduced.values())
            row = {c: v // g for c, v in reduced.items()} if g > 1 else reduced
    return len(pivots)


def jacobian_ring_dim(spec: GradedRingSpec, k: int) -> int:
    """Dimension of the degree-k graded piece of the Jacobian ring.

    The degree-k piece of the Jacobian ideal is spanned by m * dF/dx_i over
    the monomials m of degree k - deg(dF/dx_i); each product is one sparse
    row over the degree-k monomial basis, whose entries are the partial's
    integer coefficients.  The rows stream into sparse_rank one at a time,
    so only its pivots are held.
    """
    weights = spec.weights
    basis = monomials_of_weighted_degree(weights, k)
    if not basis:
        return 0
    index = {m: i for i, m in enumerate(basis)}

    def rows():
        shifts: dict[int, list[tuple[int, ...]]] = {}
        for v in spec.poly.variables:
            g = spec.poly.partial_derivative(v)
            if not g.terms:
                continue
            terms = g.terms.items()
            degree = k - g.weighted_degree()
            if degree not in shifts:
                shifts[degree] = monomials_of_weighted_degree(weights, degree)
            # distinct exponents e hit distinct monomials m + e: no entry collides
            for m in shifts[degree]:
                yield {index[tuple(map(add, m, e))]: c for e, c in terms}

    return len(basis) - sparse_rank(rows())


def quasi_smooth_spot_check(spec: GradedRingSpec) -> bool:
    """Finite-field sanity check: do the partials share a nonzero common zero
    over F_p, p = SPOT_CHECK_PRIME?  Returns True when none is found
    (consistent with quasi-smooth).

    F is first divided by its content, the gcd of its coefficients, so a
    multiple c * F with p | c reduces mod p to the reduction of F, not to
    zero.  A reduction can acquire extra singular points, so False is only
    a warning sign, never a proof of failure; True over one prime is
    likewise only evidence.  Skipped (returns True) when the grid is too
    large.
    """
    if SPOT_CHECK_PRIME**spec.poly.nvars > SPOT_CHECK_MAX_GRID:
        return True
    field = make_field(SPOT_CHECK_PRIME)
    content = gcd(*spec.poly.terms.values())
    poly = WPolynomial(spec.poly.variables, spec.weights,
                       {e: c // content for e, c in spec.poly.terms.items()})
    partials = [poly.partial_derivative(v) for v in poly.variables]
    constraints = [g for g in partials if g.terms]
    if not constraints:
        return False
    return gridcount.zero_count(constraints, field, weights=spec.weights) == 0


def hodge_h3_smooth(spec: GradedRingSpec) -> int:
    """h^3 of a quasi-smooth hypersurface threefold in weighted P^4.

    h^{3-q,q} = dim R_((q+1)d - sum(w)) for q = 0..3 (Griffiths residues).
    For quasi-smooth F the partials form a regular sequence, so R is an
    Artinian complete intersection, hence Gorenstein with socle degree
    s = sum(d - 2 w_i), and multiplication into R_s pairs R_k with R_(s-k):
    dim R_k = dim R_(s-k).  The degrees of q and 3 - q add up to
    5d - 2 sum(w) = s, so this is Hodge symmetry h^{3-q,q} = h^{q,3-q}
    (Steenbrink 1977; Dolgachev, "Weighted projective varieties", 1982),
    and h^3 is twice the sum over q = 0, 1.  For a member that is not
    quasi-smooth neither sum computes h^3; the spot check below warns.

    The value depends only on (d, weights) among quasi-smooth members, so any
    representative works; the diagonal member is the cheap one.
    """
    if spec.poly.nvars != 5:
        raise ValueError("h^3 formula applies to hypersurface threefolds in weighted P^4")
    if not quasi_smooth_spot_check(spec):
        warnings.warn("representative may not be quasi-smooth: partials share a "
                      "nonzero common zero over a test prime", stacklevel=2)
    d = spec.degree
    total_weight = sum(spec.weights)
    return 2 * sum(jacobian_ring_dim(spec, (q + 1) * d - total_weight) for q in range(2))


def milnor_quasihomogeneous(degree: int, local_weights: tuple[int, ...]) -> int:
    """Milnor number prod(d / w_i - 1) = prod(d - w_i) / prod(w_i) of a
    quasi-homogeneous isolated singularity, evaluated in integers.

    Requires 0 < w_i < d for every i (otherwise the germ is not an isolated
    singularity of this form) and an integral quotient.
    """
    for w in local_weights:
        if not 0 < w < degree:
            raise ValueError(
                f"d/w = {degree}/{w} <= 1: not an isolated quasi-homogeneous "
                f"singularity of this form")
    mu, remainder = divmod(prod(degree - w for w in local_weights), prod(local_weights))
    if remainder:
        raise ValueError(f"product formula gives a non-integer; "
                         f"weights {local_weights} do not define this normal form")
    return mu


def h4_sigma_total(local_h2_prim: int, num_points: int) -> int:
    """Total dimension of cohomology supported on the singular set: every
    singular point contributes its local primitive h^2."""
    if local_h2_prim < 0 or num_points < 0:
        raise ValueError("inputs must be nonnegative")
    return local_h2_prim * num_points


def chi_singular(chi_smooth: int, milnor_numbers: list[int]) -> int:
    """Euler characteristic of the singular member: chi of the smooth member
    plus the sum of the Milnor numbers (odd-dimensional hypersurface case)."""
    return chi_smooth + sum(milnor_numbers)


class CohomologyInputs(NamedTuple):
    """The quadruple of cohomological inputs the rank computation consumes."""

    h4_sigma: int
    chi: int
    milnor_numbers: tuple[int, ...]
    h3_smooth: int
    local_h2_prim: int
    h2_surface: int


def builtin_cohomology_inputs(num_singular: int = 9) -> CohomologyInputs:
    """Assemble the inputs for the built-in threefold.

    local h^2_prim from the degree-2 piece of the local surface's Jacobian
    ring; h^3 of a smooth member from the diagonal representative of the
    threefold's degree and weights; one Milnor number per singular point,
    that of the local surface's degree and weights (4); chi from
    h^0 = h^2 = h^4 = h^6 = 1.  More than MAX_SINGULAR_POINTS points raise
    ValueError.
    """
    if num_singular > MAX_SINGULAR_POINTS:
        raise ValueError(f"{num_singular} singular points: the threefold has at most "
                         f"{MAX_SINGULAR_POINTS}, one over each cusp of its sextic base")
    surface = local_surface_normalized()
    local_h2 = jacobian_ring_dim(GradedRingSpec(poly=surface), 2)
    h3 = hodge_h3_smooth(GradedRingSpec(fermat_member(
        defining_polynomial().weighted_degree(), THREEFOLD_WEIGHTS, THREEFOLD_VARIABLES)))
    milnor = milnor_quasihomogeneous(surface.weighted_degree(), SURFACE_WEIGHTS)
    milnor_numbers = (milnor,) * num_singular
    chi_smooth = 4 - h3
    return CohomologyInputs(
        h4_sigma=h4_sigma_total(local_h2, num_singular),
        chi=chi_singular(chi_smooth, list(milnor_numbers)),
        milnor_numbers=milnor_numbers,
        h3_smooth=h3,
        local_h2_prim=local_h2,
        h2_surface=local_h2 + 1,
    )
