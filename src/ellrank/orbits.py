"""Orbits of grid points under the weighted scaling of projective space.

Two nonzero points of F_p^n name the same point of P(w_0..w_(n-1)) when one
is obtained from the other by scaling coordinate i with mu^(w_i / d), mu in
F_p^*, where d is the gcd of the weights on the points' support (see the
counting module).  Each orbit is named by its lexicographically smallest
member:

  * is_orbit_min:   whether each point is its orbit's smallest member by a
                    stabilizer chain tabulated per support: the support
                    masks ORed together a live column at a time, then two
                    flat gathers per column (gridcount's walk tests each
                    block's zeros: gridcount.zero_count for the naive count
                    and the spot check, gridcount.common_zeros for the
                    scan);
  * chart_axes:     the charts of the weighted projective space within a
                    grid, which hold every orbit minimum (gridcount's walk,
                    given the weights, walks them, not the cone);
  * orbit_min_keys: one integer key per point, the smallest member's base-p
                    digits, read off the point's p - 1 scalings one orbit at
                    a time, O(p) per point.

gridcount imports this module inside the walks that need it, never at
import, and resolves all three as gridcount.* when they are read there.
The tuple canonicalizer the tests compare them against lives in
tests/helpers.py.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import Sequence

import numpy as np

from .fields import PrimeField, discrete_log_tables, power_coset_representatives


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


@lru_cache(maxsize=32)
def _orbit_min_tables(weights: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, canon): the stabilizer chain of a point that is its own
    orbit minimum, tabulated per support pattern, for flat gathers.

    With the support-reduced weights w_i and q = p - 1, mu = g^a scales
    column i by g^(a w_i), i.e. adds a w_i to its log mod q.  The minimum
    fixes the support columns in order: while the scalings left form <g^h>
    (h = 1 at first), column i reaches exactly the coset of x_i modulo the
    e-th powers, e = gcd(h w_i, q), so the minimum puts there that coset's
    smallest member, and the scalings that keep it form <g^h'>,
    h' = gcd(h q / e, q).  A point is its own minimum exactly when every
    x_i already is the smallest member of its coset; then no column moves
    and the exponent e_i met at column i depends only on the support (the
    mask whose bit n - 1 - i is set when x_i != 0) and the weights.
    canon[r * p + v] says that v is the smallest member of its coset of
    e-th powers, e the exponent of row r (fields.power_coset_representatives),
    and offsets[i, mask] is r * p for the row holding e_i; canon[r * p] is
    True, so columns off the support always pass.
    """
    n, q = len(weights), p - 1
    masks = np.arange(1 << n, dtype=np.int64)
    bits = masks[:, None] >> np.arange(n - 1, -1, -1) & 1  # bits[mask, i]: x_i != 0
    d = np.gcd.reduce(bits * np.array(weights, dtype=np.int64), axis=1)
    d[0] = 1  # the zero point has no support
    exps = np.ones((1 << n, n), dtype=np.int64)
    h = np.ones(1 << n, dtype=np.int64)
    for i, w in enumerate(weights):
        on = bits[:, i] == 1
        e = np.gcd(h * (w // d), q)
        exps[on, i] = e[on]
        h = np.where(on, np.gcd(h * (q // e), q), h)
    values = sorted(set(exps.ravel().tolist()))  # np.unique would import numpy.ma
    canon = np.zeros((len(values), p), dtype=bool)
    canon[:, 0] = True
    for r, e in enumerate(values):
        canon[r, power_coset_representatives(p, e)] = True
    offsets = np.ascontiguousarray(np.searchsorted(values, exps).T * p)
    canon = canon.ravel()
    offsets.flags.writeable = canon.flags.writeable = False  # shared by every caller
    return offsets, canon


def is_orbit_min(points: np.ndarray, weights: tuple[int, ...], p: int) -> np.ndarray:
    """Whether each point, coordinates in [0, p), is the lex-smallest member of
    its orbit; False for the zero point.  Only the k columns nonzero in some
    row (the live ones) are kept; the support masks over them (bit k - 1 - j
    for live column j) are built a column at a time by shifting and ORing,
    and each live column is tested by flat gathers from the tables of
    _orbit_min_tables (2^k masks).
    """
    live = [i for i in range(points.shape[1]) if points[:, i].any()]
    masks = np.zeros(len(points), dtype=np.int64)
    for i in live:
        masks <<= 1
        masks |= points[:, i] != 0
    keep = masks != 0
    if not live:
        return keep
    offsets, canon = _orbit_min_tables(tuple(weights[i] for i in live), p)
    for j, i in enumerate(live):
        keep &= canon[offsets[j][masks] + points[:, i]]
    return keep


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


def chart_axes(axes: Sequence[np.ndarray], weights: tuple[int, ...], field: PrimeField):
    """Yield the nonempty charts of P(weights) within product(axes), each as a
    list of axes, chart n - 1 first, so that their points follow one another
    in lexicographic order.  Each axis must be ascending.

    Chart i holds the points whose first nonzero coordinate is x_i: the axes
    before i cut to {0}, axis i cut to the smallest residue of each coset of
    w_i-th powers (fields.power_coset_representatives), the later axes whole.
    Every orbit minimum lies in a chart: its x_i is the smallest member of a
    coset of e-th powers, e = gcd(w_i / d, p - 1) (see _orbit_min_tables),
    and e divides gcd(w_i, p - 1), so x_i is the smallest member of a coset
    of w_i-th powers.  The charts miss only points that are no orbit minimum,
    and the zero point.
    """
    zero = np.zeros(1, dtype=np.int64)
    on_axis = np.zeros(field.p, dtype=bool)
    for i in reversed(range(len(axes))):
        if not all(len(a) and a[0] == 0 for a in axes[:i]):  # 0 leads an ascending axis
            continue
        reps = np.array(power_coset_representatives(field.p, weights[i]), dtype=np.int64)
        on_axis[:] = False
        on_axis[axes[i]] = True
        chart = [zero] * i + [reps[on_axis[reps]]] + list(axes[i + 1:])
        if prod(len(a) for a in chart):
            yield chart
