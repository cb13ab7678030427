"""Orbits of grid points under the weighted scaling of projective space.

Two nonzero points of F_p^n name the same point of P(w_0..w_(n-1)) when one
is obtained from the other by scaling coordinate i with mu^(w_i / d), mu in
F_p^*, where d is the gcd of the weights on the points' support (see the
counting module).  Each orbit is named by its lexicographically smallest
member:

  * chart_axes:      the charts of the weighted projective space within a
                     grid, which hold every orbit minimum (gridcount's walk,
                     given the weights, charges their size to the budget);
  * orbit_min_grids: the orbit minima within a grid, one product grid per
                     support, each column cut to its coset minima (the
                     walk, given the weights, visits exactly these, with no
                     test of its zeros: gridcount.zero_count for the naive
                     count and the spot check, gridcount.common_zeros for
                     the scan);
  * orbit_min_keys:  one integer key per point, the smallest member's base-p
                     digits, read off the point's p - 1 scalings one orbit
                     at a time, O(p) per point.

gridcount imports all three when it is imported, and callers read them as
gridcount.*, so this module loads exactly when gridcount does.
The tuple canonicalizer the tests compare them against lives in
tests/helpers.py.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import Sequence

# ellrank's sources before numpy, as in every module that imports numpy
from .fields import PrimeField, discrete_log_tables, power_coset_representatives

import numpy as np


def _orbit_minima(points: np.ndarray, weights: tuple[int, ...], p: int) -> np.ndarray:
    """The lex-smallest member of each point's orbit, row by row, on a copy.

    A point with support S (its nonzero columns) and d = gcd(w_i : i in S)
    has the p - 1 scalings x_i -> g^(a w_i / d) x_i, a = 0..p-2, read off the
    discrete logs of its coordinates.  Over S in order, column i of the
    minimum is the least value the still-kept scalings give it, and only the
    scalings that reach that value are kept for the later columns.  One orbit
    at a time, O(p) memory per point; the zero point stays zero.
    """
    exp, log = discrete_log_tables(p)
    q = p - 1
    everything = np.arange(q, dtype=np.int64)
    minima = points % p
    for row in minima:
        cols = np.flatnonzero(row).tolist()
        if not cols:
            continue
        d = gcd(*(weights[i] for i in cols))
        scalings = everything
        for i in cols:
            logs = scalings * (weights[i] // d % q)
            logs += log[row[i]]
            logs %= q  # the logs of x_i's images under the kept scalings
            values = exp.take(logs)
            row[i] = values.min()
            scalings = scalings[values == row[i]]
    return minima


def orbit_min_keys(points: np.ndarray, weights: tuple[int, ...], p: int) -> np.ndarray:
    """Packed key of each point's orbit minimum (_orbit_minima): its base-p
    digits, so distinct keys name distinct points of the weighted projective
    space (identified as in the module docstring) and key order is
    lexicographic order.  Keys are int64 while p^n < 2^62 and Python integers
    (object dtype) beyond.  The zero point gets key 0; callers exclude it.
    """
    n = points.shape[1]
    key_dtype = np.int64 if p ** n < 2**62 else object
    pows = np.array([p ** (n - 1 - i) for i in range(n)], dtype=key_dtype)
    return _orbit_minima(points, weights, p).astype(key_dtype) @ pows


def _coset_minima(axis: np.ndarray, e: int, p: int) -> np.ndarray:
    """The members of an ascending axis that are the smallest residue of
    their coset of e-th powers in F_p^* (fields.power_coset_representatives),
    ascending: a view of the axis's nonzero part when every coset is a single
    residue (gcd(e, p - 1) = p - 1), else the minima looked up in the axis,
    so memory is the number of cosets, not p."""
    nonzero = axis[1:] if len(axis) and axis[0] == 0 else axis
    if gcd(e, p - 1) == p - 1 or not len(nonzero):
        return nonzero
    reps = np.array(power_coset_representatives(p, e), dtype=np.int64)
    return reps[nonzero.take(np.searchsorted(nonzero, reps), mode="clip") == reps]


def chart_axes(axes: Sequence[np.ndarray], weights: tuple[int, ...], field: PrimeField):
    """Yield the nonempty charts of P(weights) within product(axes), each as a
    list of axes, chart n - 1 first, so that their points follow one another
    in lexicographic order.  Each axis must be ascending.

    Chart i holds the points whose first nonzero coordinate is x_i: the axes
    before i cut to {0}, axis i cut to the smallest residue of each coset of
    w_i-th powers, the later axes whole.  Every orbit minimum lies in a
    chart: its x_i is the smallest member of a coset of e-th powers,
    e = gcd(w_i / d, p - 1) (see orbit_min_grids), and e divides
    gcd(w_i, p - 1), so x_i is the smallest member of a coset of w_i-th
    powers.  The charts miss only points that are no orbit minimum, and the
    zero point.
    """
    zero = np.zeros(1, dtype=np.int64)
    for i in reversed(range(len(axes))):
        if not all(len(a) and a[0] == 0 for a in axes[:i]):  # 0 leads an ascending axis
            continue
        chart = [zero] * i + [_coset_minima(axes[i], weights[i], field.p)] + list(axes[i + 1:])
        if prod(len(a) for a in chart):
            yield chart


def orbit_min_grids(axes: Sequence[np.ndarray], weights: tuple[int, ...], field: PrimeField):
    """Yield the orbit minima within product(axes), the zero point excluded,
    as product grids: one list of axes per support S (the columns that are
    nonzero), S nonempty and every axis of the grid nonempty.  Each axis must
    be ascending.  Grids of different supports interleave in lexicographic
    order.

    With d = gcd(w_i : i in S), q = p - 1 and g a primitive root, mu = g^a
    scales column i by g^(a w_i / d), i.e. adds a w_i / d to its log mod q.
    The minimum fixes the columns of S in order: while the scalings left
    form <g^h> (h = 1 at first), column i reaches exactly the coset of x_i
    modulo the e-th powers, e = gcd(h w_i / d, q), so the minimum puts
    there that coset's smallest member, and the scalings that keep it form
    <g^h'>, h' = gcd(h q / e, q).  A point is its own minimum exactly when
    every x_i already is the smallest member of its coset; then no column
    moves, and the exponent met at column i depends only on S and the
    weights.  So the minima of support S are the product of each column's
    coset minima (_coset_minima, computed once per axis and exponent), with
    {0} off S.  An axis holding 0 and a nonzero residue doubles the
    supports: at most 2^n grids.
    """
    p, q = field.p, field.p - 1
    zero = np.zeros(1, dtype=np.int64)
    minima: dict[tuple[int, int], np.ndarray] = {}  # (id of the axis, e) -> its coset minima
    sides = [[on for on, present in ((False, len(a) and a[0] == 0), (True, len(a) and a[-1] != 0))
              if present] for a in axes]
    for support in product(*sides):
        cols = [i for i, on in enumerate(support) if on]
        if not cols:
            continue
        d = gcd(*(weights[i] for i in cols))
        grid, h = [zero] * len(axes), 1
        for i in cols:
            e = gcd(h * (weights[i] // d), q)
            if (id(axes[i]), e) not in minima:
                minima[id(axes[i]), e] = _coset_minima(axes[i], e, p)
            grid[i] = minima[id(axes[i]), e]
            h = gcd(h * (q // e), q)
        if all(len(a) for a in grid):
            yield grid
