"""Shared test utilities: in-process CLI runs, random homogeneous polynomials,
the pure-Python oracles the library is checked against (a per-point evaluator,
zero counter and value histogram, a tuple orbit canonicalizer for the numpy
engine ellrank.gridcount, the O(p^2) Weierstrass fiber table, the loop
definitions of a field's character and cube-root tables, and a dense Fraction
eliminator for the sparse Jacobian-ring rank), and small helpers that only
tests call: a polynomial's largest exponent and its powers, the number of
square roots in F_p, the unnormalized local surfaces and the plain-scaling
orbit count."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import product
from typing import Iterable

import numpy as np

from ellrank import gridcount
from ellrank.cli import main
from ellrank.counting import DEFAULT_BUDGET, count_cone_naive
from ellrank.curves import SURFACE_VARIABLES, SURFACE_WEIGHTS
from ellrank.errors import ConsistencyError
from ellrank.fields import OMEGA, EisensteinInt, PrimeField
from ellrank.parsing import parse_polynomial
from ellrank.hodge import monomials_of_weighted_degree
from ellrank.wpoly import WPolynomial, support_gcd


def run_cli(args: list[str]) -> tuple[int, dict, str]:
    """Run the CLI in-process; returns (exit code, parsed JSON, raw stdout)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    raw = out.getvalue()
    doc = json.loads(raw) if raw.strip() else None
    return code, doc, raw


def strip_timing(raw: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', raw)


def random_homogeneous(rng: random.Random, nvars: int, weights: tuple[int, ...],
                       degree: int, max_terms: int = 6,
                       names: tuple[str, ...] | None = None) -> WPolynomial | None:
    """Random weighted-homogeneous polynomial, or None if the degree is empty."""
    if names is None:
        names = tuple(f"v{i}" for i in range(nvars))
    monomials = monomials_of_weighted_degree(weights, degree)
    if not monomials:
        return None
    k = rng.randint(1, min(max_terms, len(monomials)))
    chosen = rng.sample(monomials, k)
    terms = {m: rng.randint(1, 6) * rng.choice((1, -1)) for m in chosen}
    return WPolynomial(names, weights, terms)


def random_weierstrass(rng: random.Random, n_base: int) -> WPolynomial:
    """y^2 - x^3 - g(z) with g random homogeneous of degree 6 in weight-1 z's."""
    names = ("x", "y") + tuple(f"z{i}" for i in range(n_base))
    weights = (2, 3) + (1,) * n_base
    terms = {}
    y_sq = (0, 2) + (0,) * n_base
    x_cu = (3, 0) + (0,) * n_base
    terms[y_sq] = 1
    terms[x_cu] = -1
    base_monomials = monomials_of_weighted_degree((1,) * n_base, 6)
    for m in rng.sample(base_monomials, rng.randint(1, min(4, len(base_monomials)))):
        terms[(0, 0) + m] = rng.randint(-8, 8) or 1
    return WPolynomial(names, weights, terms)


def _point_evaluator(poly: WPolynomial, field: PrimeField):
    """Reference per-point evaluation: a function from a point to f(point) mod p."""
    p = field.p
    compiled = [([(i, e) for i, e in enumerate(exps) if e], c)
                for exps, c in gridcount.reduced_terms(poly, field)]

    def value(pt: tuple[int, ...]) -> int:
        acc = 0
        for active, c in compiled:
            t = c
            for i, e in active:
                t = t * pow(pt[i], e, p) % p
            acc += t
        return acc % p

    return value


def _field_tables_python(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference (chi table, cube roots) of F_p by their loop definitions:
    chi(x^2) = 1 for x != 0, -1 on the other nonzero residues, and the c with
    c^3 = 1, ascending."""
    table = [0] * p
    for x in range(1, p):
        table[x * x % p] = 1
    for x in range(1, p):
        if table[x] == 0:
            table[x] = -1
    roots = tuple(c for c in range(1, p) if pow(c, 3, p) == 1)
    return tuple(table), roots


def _zero_count_python(poly: WPolynomial, field: PrimeField) -> int:
    """Reference exhaustive count, straight per-point evaluation."""
    value = _point_evaluator(poly, field)
    return sum(1 for pt in product(range(field.p), repeat=poly.nvars) if value(pt) == 0)


def _value_histogram_python(poly: WPolynomial, field: PrimeField) -> list[int]:
    """Reference histogram of f's values over F_p^n, point by point."""
    value = _point_evaluator(poly, field)
    hist = [0] * field.p
    for pt in product(range(field.p), repeat=poly.nvars):
        hist[value(pt)] += 1
    return hist


def _fiber_table_python(field: PrimeField) -> list[int]:
    """Reference T[c] = sum_x (1 + chi(x^3 + c)), one character sum per c: O(p^2),
    chi from the loop definition (_field_tables_python)."""
    p = field.p
    x = np.arange(p, dtype=np.int64)
    cubes = x * x % p * x % p
    chi = np.array(_field_tables_python(p)[0], dtype=np.int64)
    return [p + int(chi[(cubes + c) % p].sum()) for c in range(p)]


def _common_zeros_python(polys: list[WPolynomial], field: PrimeField) -> list[tuple[int, ...]]:
    """Reference common zeros: filter the full grid, point by point, in lex order."""
    values = [_point_evaluator(f, field) for f in polys]
    return [pt for pt in product(range(field.p), repeat=polys[0].nvars)
            if all(value(pt) == 0 for value in values)]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix mod the prime p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inverse % p
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    """Reference exact rank: dense Gaussian elimination over Fraction,
    pivoting on any nonzero entry."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    rows = [row[:] for row in rows]
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            factor = rows[r][col] / pv
            if factor == 0:
                continue
            row = rows[r]
            top = rows[pivot_row]
            for c in range(col, ncols):
                row[c] -= factor * top[c]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def canonical_representative(point: Iterable[int], weights: tuple[int, ...],
                             p: int) -> tuple[int, ...]:
    """Lexicographically smallest tuple identifying the projective point.

    Scales by mu^(w_i / d) over mu in F_p^*, where d is the gcd of the weights
    on the point's support; for trivial-stabilizer points (d = 1) this is
    plain lex-min over the scaling orbit.
    """
    point = tuple(int(v) % p for v in point)
    d = support_gcd(weights, point)
    if d == 0:
        return point
    best = point
    for mu in range(2, p):
        scaled = tuple(pow(mu, w // d, p) * v % p if v else 0
                       for w, v in zip(weights, point))
        if scaled < best:
            best = scaled
    return best


def poly_power(f: WPolynomial, n: int) -> WPolynomial:
    """f^n by repeated multiplication (the library's only power is the parser's ^)."""
    out = WPolynomial.constant(f.variables, f.weights, 1)
    for _ in range(n):
        out = out * f
    return out


def max_exponent(poly: WPolynomial, name: str) -> int:
    """Largest exponent of the named variable over the terms of poly."""
    i = poly.variables.index(name)
    return max((e[i] for e in poly.terms), default=0)


def sqrt_count(field: PrimeField, a: int) -> int:
    """Number of square roots of a in F_p, i.e. 1 + chi(a)."""
    return 1 + _field_tables_python(field.p)[0][a % field.p]


def local_surface_twisted(i: int) -> WPolynomial:
    """-y^2 + x^3 - 64*s1^3 + 144*omega^i*t1^2, the unnormalized local form.

    Rescaling s1 and t1 turns it into the normalized form (possible over any
    field containing the needed roots).
    """
    if i not in (0, 1, 2):
        raise ValueError("twist index must be 0, 1 or 2")
    coeff: EisensteinInt = (OMEGA ** i) * 144
    f = parse_polynomial("-y^2 + x^3 - 64*s1^3", SURFACE_VARIABLES, SURFACE_WEIGHTS)
    t_sq = parse_polynomial("t1^2", SURFACE_VARIABLES, SURFACE_WEIGHTS)
    return f + t_sq * coeff


def rational_orbit_count(field: PrimeField, poly: WPolynomial, budget: int = DEFAULT_BUDGET,
                         threads: int = 1) -> int:
    """Burnside count of plain F_p^*-scaling orbits on the punctured cone.

    (1/(p-1)) * sum over lambda of #Fix(lambda), where Fix(lambda) is the set
    of nonzero solutions supported on coordinates with lambda^(w_i) = 1.  The
    sum is always divisible by p - 1.  This equals the projective point count
    exactly when all orbits are free; strata whose support weights share a
    common factor d > 1 contribute gcd(d, p-1) orbits per projective point.
    """
    p = field.p
    origin_solves = int(_point_evaluator(poly, field)((0,) * poly.nvars) == 0)
    fixed_total = 0
    cache: dict[frozenset, int] = {}
    for lam in range(1, p):
        support = frozenset(i for i, w in enumerate(poly.weights) if pow(lam, w, p) == 1)
        if support not in cache:
            restricted = poly.restrict(sorted(support))
            cache[support] = count_cone_naive(field, restricted,
                                              budget=budget, threads=threads) - origin_solves
        fixed_total += cache[support]
    if fixed_total % (p - 1) != 0:
        raise ConsistencyError("Burnside sum not divisible by p - 1")
    return fixed_total // (p - 1)
