"""Point counts of hypersurfaces in weighted projective space over F_p.

Three mutually cross-checking strategies, all exact:

  naive             count the solutions on the whole affine cone F_p^n block
                    by block, building no rows (count_cone_naive), then
                    those on the charts of the weighted projective space
                    that are the lex-smallest member of their orbit, the
                    same walk asked with the weights (gridcount.zero_count,
                    gridcount.is_orbit_min per block, no orbit keys); each
                    thread holds one block at a time, and this brute force
                    cross-checks the other two;

  burnside          count the cone stratified by coordinate support, with an
                    exact divisibility check per stratum (each stratum's
                    solution count must be a nonnegative multiple of p - 1);
                    each stratum's zero count comes from the value histogram,
                    which convolves the histograms of the variable-disjoint
                    parts of f (p^3 + 2p points for the threefold's top
                    stratum instead of p^5), and a part that several strata
                    share is enumerated once per count;

  weierstrass-fast  for equations of the shape a (y^2 - x^3) + r(z_1..z_k),
                    a nonzero mod p, read as y^2 = x^3 + f with f = -a^5 r
                    (weierstrass_shape): precompute the fiber table
                    T[c] = #{(x,y): y^2 = x^3 + c} = sum_x (1 + chi(x^3 + c))
                    once (chi the parity of the discrete log), then sum T
                    over the values of f on the charts of the base's
                    weighted projective space (T is constant on sextic
                    classes and f scales by a sixth power), reducing an
                    O(p^(k+2)) enumeration to O(p + p^(k-1)).

Projective counts are counts of F_p-points of the weighted projective
hypersurface, in the ambient space of the polynomial's own weights
(WPolynomial.weights).  A point whose support has weight gcd d > 1 carries a
mu_d stabilizer, and its q - 1 rational cone representatives split into
gcd(d, p - 1) plain-scaling orbits; identifying points therefore uses scaling
by the support-reduced weights w_i / d, under which every class has exactly
p - 1 cone representatives and the division by p - 1 is exact.  (The classic
single-sum Burnside count of plain-scaling orbits overcounts projective points
exactly on strata with d > 1; the tests keep it as a diagnostic.)  Every
method's counts therefore meet cone - [F(0) = 0] = (p - 1) * projective, F(0)
the constant term: count_projective checks it for all three and exits 5 on a
violation, and weierstrass-fast, which counts only the cone, reads its
projective count off it.

All enumeration, at every grid size, goes through the numpy engine in
gridcount; the tests check it against a per-point evaluator.  The naive and
burnside methods charge the budget the whole grid, p^n, whatever the engine
walks.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple

# ellrank's sources before numpy: gridcount compiles, then imports numpy
from . import DEFAULT_BUDGET, METHODS, gridcount
from .errors import ConsistencyError, charge
from .fields import (PrimeField, discrete_log_tables, power_coset_representatives,
                     primitive_cube_root)
from .wpoly import WPolynomial

import numpy as np


# no ellrank code builds it; the benchmark's set-up (perfbench/child.py) does
class WeightedSpace:
    """Ambient weighted projective space, one positive weight per coordinate."""

    __slots__ = ("weights",)

    def __init__(self, weights: Iterable[int]):
        weights = tuple(int(w) for w in weights)
        if not weights or any(w < 1 for w in weights):
            raise ValueError(f"weights must be positive, got {weights}")
        self.weights = weights


class CountReport(NamedTuple):
    """Result of one projective point count.

    cone_count includes the origin whenever the polynomial has no constant
    term (the origin then always solves F = 0).
    """

    p: int
    cone_count: int
    projective_count: int
    method: str


def _constant(poly: WPolynomial, field: PrimeField) -> int:
    """F(0) mod p, the constant term among the reduced terms."""
    return dict(gridcount.reduced_terms(poly, field)).get((0,) * poly.nvars, 0)


def count_cone_naive(field: PrimeField, poly: WPolynomial,
                     budget: int = DEFAULT_BUDGET, threads: int = 1) -> int:
    """Exact number of tuples in F_p^n with f = 0, by brute force: the
    zeros of every block of the grid counted (gridcount.zero_count).
    Refuses grids beyond the budget, charged p^n."""
    charge(field.p ** poly.nvars, budget, "naive cone count")
    return gridcount.zero_count([poly], field, threads=threads)


def weierstrass_fiber_table(field: PrimeField) -> list[int]:
    """T[c] = #{(x, y) in F_p^2 : y^2 = x^3 + c} = sum_x (1 + chi(x^3 + c)).

    Satisfies sum_c T[c] = p^2 (each pair (x, y) determines c) and
    0 <= T[c] <= 2p.  Computed in O(p): (x, y) -> (mu^2 x, mu^3 y) maps
    y^2 = x^3 + c onto y^2 = x^3 + mu^6 c, so T is constant on the
    k = gcd(6, p - 1) cosets of the sixth powers in F_p^*, the classes of
    log_g(c) mod k for a primitive root g.  Only T[0] and T[g^j], j < k, are
    summed.  chi is read off the same logs: chi(g^j) = (-1)^j, chi(0) = 0.
    """
    p = field.p
    x = np.arange(p, dtype=np.int64)
    cubes = x * x % p * x % p
    exp, log = discrete_log_tables(p)
    chi = 1 - 2 * (log & 1)
    chi[0] = 0
    classes = gcd(6, p - 1)
    by_class = np.array([p + int(chi[(cubes + c) % p].sum()) for c in exp[:classes]])
    return [p + int(chi[cubes].sum())] + by_class[log[1:] % classes].tolist()


def count_cone_weierstrass(field: PrimeField, f_base: WPolynomial,
                           budget: int = DEFAULT_BUDGET, threads: int = 1) -> int:
    """Cone count of y^2 = x^3 + f_base(z) via the fiber table.

    Equals count_cone_naive of the full (k+2)-variable equation: grouping the
    cone by z and counting the Weierstrass fiber over c = f_base(z) with the
    quadratic character replaces the (x, y) loops by table lookups.

    The z-sum runs over charts, not over F_p^k.  f_base must be
    weighted-homogeneous of a degree D divisible by 6 (constants have D = 0),
    so f(lambda.z) = lambda^D f(z) and, since (x, y) -> (mu^2 x, mu^3 y) maps
    y^2 = x^3 + c onto y^2 = x^3 + mu^6 c, T[f(lambda.z)] = T[f(z)].  The
    points whose first nonzero coordinate is z_i, with z_i in the coset
    r (F_p^*)^(w_i), are the (p-1)/g_i scalings of the chart z_0 = .. =
    z_(i-1) = 0, z_i = r, where g_i = gcd(w_i, p - 1):

        cone = T[f(0)] + sum_i sum_r ((p-1)/g_i) sum_(z_(i+1..k)) T[f(0,..,0,r,z)].

    The budget is charged the points the charts walk, sum_i g_i p^(k-1-i)
    (p^2 + p + 1 for three weight-1 variables), and the points the fiber
    table sums, (gcd(6, p - 1) + 1) p.
    """
    degree = f_base.weighted_degree() or 0
    if not f_base.is_weighted_homogeneous() or degree % 6:
        raise ValueError("Weierstrass base must be weighted-homogeneous of degree "
                         "divisible by 6")
    p, k = field.p, f_base.nvars
    charts = [(i, power_coset_representatives(p, w)) for i, w in enumerate(f_base.weights)]
    charge(sum(len(reps) * p ** (k - 1 - i) for i, reps in charts), budget,
           "weierstrass base enumeration")
    charge((gcd(6, p - 1) + 1) * p, budget, "fiber table")  # what weierstrass_fiber_table sums
    table = weierstrass_fiber_table(field)
    cone = table[_constant(f_base, field)]
    for i, reps in charts:
        for r in reps:
            chart = f_base.specialize({**{j: 0 for j in range(i)}, i: r})
            hist = gridcount.value_histogram(chart, field, threads=threads)
            cone += (p - 1) // len(reps) * sum(m * t for m, t in zip(hist, table))
    return cone


def weierstrass_shape(poly: WPolynomial,
                      field: PrimeField) -> tuple[int, int, WPolynomial] | None:
    """Detect the shape a*(y^2 - x^3) + rest(z) of f = 0 over F_p.

    Returns (y_index, x_index, f_base) with f_base over the remaining
    variables, or None.  The square and cube variables must each appear in
    exactly one term, those coefficients must be exact negatives a and -a,
    and a must be nonzero mod p, so that f = 0 is equivalent mod p to
    y^2 = x^3 - rest(z) / a.  No division is needed: (x, y) -> (a^2 x, a^3 y)
    maps y^2 = x^3 + c onto y^2 = x^3 + a^6 c, so the fiber counts agree,
    T[c] = T[a^6 c], and f_base = -a^5 * rest counts the same points with
    coefficients in Z or Z[omega], as f's.  For a = +-1 or a unit of
    Z[omega], a^5 = 1 / a and f_base is -rest / a itself.
    """
    p, n = field.p, poly.nvars
    pure: dict[int, list[tuple[int, object]]] = {}
    occurrences = [0] * n
    for exps, coeff in poly.terms.items():
        active = [i for i, e in enumerate(exps) if e]
        for i in active:
            occurrences[i] += 1
        if len(active) == 1:
            i = active[0]
            pure.setdefault(i, []).append((exps[i], coeff))
    for y_idx in range(n):
        if occurrences[y_idx] != 1 or pure.get(y_idx, []) == []:
            continue
        [(ey, cy)] = pure[y_idx]
        if ey != 2:
            continue
        for x_idx in range(n):
            if x_idx == y_idx or occurrences[x_idx] != 1 or pure.get(x_idx, []) == []:
                continue
            [(ex, cx)] = pure[x_idx]
            if ex != 3 or cx != -cy:
                continue
            if not (cy % p if isinstance(cy, int) else cy.reduce(p, primitive_cube_root(field))):
                continue  # a vanishes mod p
            rest = {exps: coeff for exps, coeff in poly.terms.items()
                    if not exps[y_idx] and not exps[x_idx]}
            remainder = WPolynomial(poly.variables, poly.weights, rest)
            keep = [i for i in range(n) if i not in (y_idx, x_idx)]
            f_base = remainder.restrict(keep) * -(cy ** 5)
            return y_idx, x_idx, f_base
    return None


def _count_projective_naive(field: PrimeField, poly: WPolynomial, budget: int,
                            threads: int) -> tuple[int, int]:
    """Cone and projective counts by brute force: the zeros on all of F_p^n
    (count_cone_naive), and the orbit minima among those on the charts
    (gridcount.zero_count with the weights), both counted block by block."""
    charge(field.p ** poly.nvars, budget, "naive projective count")
    cone = count_cone_naive(field, poly, budget, threads)
    return cone, gridcount.zero_count([poly], field, threads=threads, weights=poly.weights)


def _burnside_counts(field: PrimeField, poly: WPolynomial, budget: int,
                     threads: int) -> tuple[int, int]:
    """Cone and projective counts by support-stratified orbit counting.

    The zero count of f restricted to every coordinate subset (the others 0)
    is read off gridcount.value_histograms, which enumerates a
    variable-disjoint part shared by several restrictions once (the
    threefold's 32 restrictions plan 60 parts, of only 5 distinct term
    lists).  Each restriction is charged p^|subset|, as count_cone_naive
    charges it, and the smallest one beyond the budget is refused.

    For each nonempty subset T, inclusion-exclusion over those counts yields
    E(T), the number of solutions supported on exactly T.  Under scaling by
    the support-reduced weights each projective point accounts for exactly
    p - 1 of these, so every E(T) must be a nonnegative multiple of p - 1; a
    violation means an implementation bug and aborts.
    """
    p, n = field.p, poly.nvars
    for size in range(n + 1):
        charge(p**size, budget, "naive cone count")
    subsets = [keep for size in range(n + 1) for keep in combinations(range(n), size)]
    hists = gridcount.value_histograms([poly.restrict(keep) for keep in subsets], field,
                                       threads=threads)
    zeros = {keep: hist[0] for keep, hist in zip(subsets, hists)}
    projective = 0
    for T in subsets[1:]:
        exact = sum((-1) ** (len(T) - size) * zeros[U]
                    for size in range(len(T) + 1) for U in combinations(T, size))
        if exact < 0 or exact % (p - 1) != 0:
            raise ConsistencyError(
                f"support stratum {list(T)} has {exact} solutions, "
                f"not a nonnegative multiple of p - 1 = {p - 1}")
        projective += exact // (p - 1)
    return zeros[tuple(range(n))], projective


def count_projective(field: PrimeField, poly: WPolynomial, method: str = "weierstrass-fast",
                     budget: int = DEFAULT_BUDGET, threads: int = 1) -> CountReport:
    """Dispatch a projective point count, check it and package the result.

    Every method must meet cone - [F(0) = 0] = (p - 1) * projective (see the
    module docstring), and weierstrass-fast reads its projective count off
    it; a count that fails it raises ConsistencyError naming the method.
    """
    if not poly.is_weighted_homogeneous():
        raise ValueError("polynomial is not weighted-homogeneous for these weights")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "naive":
        cone, projective = _count_projective_naive(field, poly, budget, threads)
    elif method == "burnside":
        cone, projective = _burnside_counts(field, poly, budget, threads)
    else:
        shape = weierstrass_shape(poly, field)
        if shape is None:
            raise ValueError("equation not in Weierstrass shape y^2 = x^3 + f(z) mod p; "
                             "use the naive or burnside method")
        _, _, f_base = shape
        cone = count_cone_weierstrass(field, f_base, budget=budget, threads=threads)
    p = field.p
    origin = int(not _constant(poly, field))  # [F(0) = 0]
    if method == "weierstrass-fast":
        projective = (cone - origin) // (p - 1)
    if cone - origin != (p - 1) * projective:
        raise ConsistencyError(f"{method} count: cone {cone} - {origin} is not "
                               f"(p - 1) * {projective} projective points")
    return CountReport(p=p, cone_count=cone, projective_count=projective,
                       method=method)
