"""Orbits of grid points under the weighted scaling of projective space.

Two nonzero points of F_p^n name the same point of P(w_0..w_(n-1)) when one
is obtained from the other by scaling coordinate i with mu^(w_i / d), mu in
F_p^*, where d is the gcd of the weights on the points' support (see the
counting module).  Each orbit is named by its lexicographically smallest
member, found by a stabilizer chain on discrete logarithms:

  * is_orbit_min:          whether each point is its orbit's smallest
                           member, one support mask and n table lookups per
                           point (the naive count and the scans of
                           gridcount.common_zeros);
  * orbit_min_keys:        one integer key per point, the smallest member's
                           base-p digits, O(n) per point;
  * orbit_representatives: the distinct smallest members of a set of points,
                           decoded from those keys (the expected singular
                           list).

  * chart_axes:            the charts of the weighted projective space within
                           a grid, which hold every orbit minimum
                           (gridcount.common_zeros walks them, not the cone).

gridcount re-exports all four, so the engine's callers reach them there.
The tuple canonicalizer the tests compare them against lives in
tests/helpers.py.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import Sequence

import numpy as np

from .fields import PrimeField, discrete_log_tables, power_coset_representatives


@lru_cache(maxsize=32)
def _coset_min_logs(p: int, e: int) -> np.ndarray:
    """best[r] = log of the smallest residue g^j with j = r mod e, for e | p - 1.

    The residues g^j, j = r mod e, form one coset of the subgroup of e-th
    powers, so best[L mod e] names the smallest member of g^L's coset.
    """
    exp, log = discrete_log_tables(p)
    best = log[exp.reshape(-1, e).min(axis=0)]
    best.flags.writeable = False  # shared by every caller of the cache
    return best


def _orbit_min_logs(logs: np.ndarray, weights: list[int], p: int) -> np.ndarray:
    """Discrete logs of the lex-smallest orbit member, row by row, in place.

    Each row holds the logs of a point's nonzero coordinates and weights the
    support-reduced weights; mu = g^a scales column i by g^(a w_i), i.e. adds
    a w_i mod q = p - 1.  A stabilizer chain fixes the
    columns in order: while the group is <g^h>, column i reaches exactly the
    coset of its value modulo e = gcd(h w_i, q); move it to that coset's
    smallest member by the b with b h w_i = target - L (mod q), apply g^(h b)
    to the later columns, and go on with the stabilizer <g^(h q / e)>.
    """
    q, h = p - 1, 1
    for i, w in enumerate(weights):
        e = gcd(h * w, q)
        qe = q // e
        col = logs[:, i]
        target = _coset_min_logs(p, e)[col % e]
        if i + 1 < len(weights):
            b = (target - col) // e % qe * pow(h * w // e % qe, -1, qe) % qe
            logs[:, i + 1:] = (logs[:, i + 1:]
                               + (h * b % q)[:, None] * np.array(weights[i + 1:])) % q
        logs[:, i] = target
        h = gcd(h * qe, q)
    return logs


@lru_cache(maxsize=32)
def _orbit_min_tables(weights: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """(stage, canon): the stabilizer chain of _orbit_min_logs for a point
    that is its own orbit minimum, tabulated per support pattern.

    Along that chain every shift is 0, so the exponent e_i = gcd(h w_i, q)
    met at column i depends only on the support (the mask whose bit
    n - 1 - i is set when x_i != 0) and the weights.  stage[mask, i] is the
    row of canon holding e_i, and canon[r, v] says that v is the smallest
    member of its coset of e-th powers, e the exponent of row r; canon[r, 0]
    is True, so columns off the support always pass.
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
    _, log = discrete_log_tables(p)
    canon = np.ones((len(values), p), dtype=bool)
    for r, e in enumerate(values):
        canon[r, 1:] = _coset_min_logs(p, e)[log[1:] % e] == log[1:]
    stage = np.searchsorted(values, exps)
    stage.flags.writeable = canon.flags.writeable = False  # shared by every caller
    return stage, canon


def is_orbit_min(points: np.ndarray, weights: tuple[int, ...], p: int) -> np.ndarray:
    """Whether each point, coordinates in [0, p), is the lex-smallest member of
    its orbit under the support-reduced scaling (see orbit_min_keys); False
    for the zero point.

    The stabilizer chain of _orbit_min_logs leaves a point in place exactly
    when every coordinate x_i is already the smallest member of its coset
    x_i (F_p^*)^(e_i), and then no later column moves, so the test is one
    support mask and n lookups per row in the tables of _orbit_min_tables.
    Columns that are zero in every row are in no support and are left out,
    so the tables have 2^k rows for the k columns that occur.
    """
    live = np.flatnonzero(points.any(axis=0)).tolist()
    masks = np.zeros(len(points), dtype=np.int64)
    for i in live:
        masks <<= 1
        masks += points[:, i] != 0
    keep = masks != 0
    if not live:
        return keep
    stage, canon = _orbit_min_tables(tuple(weights[i] for i in live), p)
    for j, i in enumerate(live):
        keep &= canon[stage[masks, j], points[:, i]]
    return keep


def orbit_min_keys(points: np.ndarray, weights: tuple[int, ...], p: int) -> np.ndarray:
    """Packed canonical key per point under weighted-projective identification.

    Two nonzero points are identified when one is obtained from the other by
    scaling coordinate i with mu^(w_i / d), mu in F_p^*, where d is the gcd of
    the weights on the point's support (scaling by the reduced weights is what
    identifies points of the weighted projective space; see counting module).
    The key packs the lex-smallest equivalent tuple into a single integer,
    its base-p digits, so distinct keys correspond exactly to distinct
    projective points and key order is lexicographic order.  Keys are int64
    while p^n < 2^62 and Python integers (object dtype) beyond.

    The points are grouped by support; within a group the lex-smallest member
    is found by a stabilizer chain on discrete logs (_orbit_min_logs), O(n)
    per point instead of a pass over all p - 1 scalars.  The zero point gets
    key 0; callers exclude it.
    """
    m, n = points.shape
    key_dtype = np.int64 if p ** n < 2**62 else object
    pows = np.array([p ** (n - 1 - i) for i in range(n)], dtype=key_dtype)
    keys = np.zeros(m, dtype=key_dtype)
    if m == 0 or n == 0:
        return keys
    exp, log = discrete_log_tables(p)
    points = points % p
    support = points != 0
    order = np.lexsort(support.T[::-1])  # rows grouped by support pattern
    ordered = support[order]
    starts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    for rows in np.split(order, starts):
        cols = np.flatnonzero(support[rows[0]])
        if cols.size == 0:
            continue
        d = gcd(*(weights[i] for i in cols))
        logs = _orbit_min_logs(log[points[np.ix_(rows, cols)]],
                               [weights[i] // d for i in cols], p)
        keys[rows] = exp[logs] @ pows[cols]
    return keys


def orbit_representatives(points: Sequence[tuple[int, ...]], weights: tuple[int, ...],
                          p: int) -> list[tuple[int, ...]]:
    """Distinct lex-smallest orbit members of nonzero points, in sorted order."""
    n = len(weights)
    keys = np.sort(orbit_min_keys(np.array(points, dtype=np.int64).reshape(-1, n), weights, p))
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]  # np.unique would import numpy.ma
    keys = keys[distinct]
    return [tuple(int(k) // p ** (n - 1 - i) % p for i in range(n)) for k in keys]


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
        reps = np.array(power_coset_representatives(field, weights[i]), dtype=np.int64)
        on_axis[:] = False
        on_axis[axes[i]] = True
        chart = [zero] * i + [reps[on_axis[reps]]] + list(axes[i + 1:])
        if prod(len(a) for a in chart):
            yield chart
