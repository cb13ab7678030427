"""Chunked, integer-exact evaluation of polynomials over F_p^n grids.

This is the one enumeration engine: every count, scan and orbit
canonicalization in the package runs here, at every grid size.  The grid is
split into contiguous chunks along the first variable; each chunk is
evaluated with int64 numpy arrays (values stay below p^2 < 2^62, so no
overflow), reduced mod p after every multiply, and aggregated by plain
integer addition, so results are independent of chunking and thread count.
Coefficients involving omega reduce with the field's smallest primitive cube
root, as in WPolynomial.evaluate_mod_p.

Entry points:

  * value_histogram:       how often each residue occurs as a value of f on
                           F_p^n;
  * zero_count:            number of grid points with f = 0 (histogram[0]);
  * common_zeros:          all grid points where every polynomial in a list
                           vanishes, with survivor compression (the first
                           constraint is evaluated on the full chunk, the rest
                           only at its zero set);
  * orbit_min_keys:        one integer key per point naming its weighted
                           projective orbit;
  * orbit_representatives: the distinct lex-smallest orbit members of a set
                           of points, decoded from those keys.

The per-point evaluator and tuple canonicalizer that the tests compare this
engine against live in tests/helpers.py.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import Sequence

import numpy as np

from .fields import PrimeField, primitive_cube_root
from .wpoly import WPolynomial, reduce_coefficient

MAX_ENGINE_PRIME = 2**31 - 1  # keeps residue products inside int64


def reduced_terms(poly: WPolynomial, field: PrimeField) -> list[tuple[tuple[int, ...], int]]:
    """Terms with coefficients reduced to nonzero residues mod p."""
    omega_image = primitive_cube_root(field) if poly.has_eisenstein_coefficients() else None
    out = []
    for exps, coeff in poly.terms.items():
        c = reduce_coefficient(coeff, field.p, omega_image)
        if c:
            out.append((exps, c))
    return sorted(out)  # deterministic evaluation order


def _power_table(p: int, max_exp: int) -> np.ndarray:
    """table[e, v] = v^e mod p, shape (max_exp + 1, p)."""
    table = np.ones((max_exp + 1, p), dtype=np.int64)
    if max_exp >= 1:
        v = np.arange(p, dtype=np.int64)
        for e in range(1, max_exp + 1):
            table[e] = table[e - 1] * v % p
    return table


def _eval_subgrid(terms, p: int, n: int, v: int, table: np.ndarray) -> np.ndarray:
    """Values of f on {v} x F_p^(n-1), shape (p,)*(n-1)."""
    shape = (p,) * (n - 1)
    acc = np.zeros(shape, dtype=np.int64)
    for exps, c in terms:
        tv = c * int(table[exps[0], v]) % p if n else c
        if tv == 0:
            continue
        arr = None
        for i in range(1, n):
            e = exps[i]
            if e == 0:
                continue
            col = table[e].reshape((1,) * (i - 1) + (p,) + (1,) * (n - 1 - i))
            arr = col if arr is None else arr * col % p
        if arr is None:
            acc += tv
        else:
            acc = acc + tv * arr
        acc %= p
    return acc


def _eval_at_points(terms, p: int, cols: list[np.ndarray], table: np.ndarray) -> np.ndarray:
    """Values of f at explicit points given as per-coordinate index arrays."""
    m = len(cols[0]) if cols else 1
    total = np.zeros(m, dtype=np.int64)
    for exps, c in terms:
        t = np.full(m, c, dtype=np.int64)
        for i, e in enumerate(exps):
            if e:
                t = t * table[e][cols[i]] % p
        total = (total + t) % p
    return total


def _map_chunks(worker, p: int, threads: int):
    values = range(p)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, values))
    return [worker(v) for v in values]


def value_histogram(poly: WPolynomial, field: PrimeField, threads: int = 1) -> list[int]:
    """Occurrences of each residue as a value of f over the full grid F_p^n."""
    p = field.p
    if p > MAX_ENGINE_PRIME:
        raise ValueError(f"prime {p} too large for the int64 grid engine")
    n = poly.nvars
    terms = reduced_terms(poly, field)
    if n == 0:
        hist = [0] * p
        hist[sum(c for _, c in terms) % p] = 1
        return hist
    max_exp = max((max(e) for e, _ in terms), default=0)
    table = _power_table(p, max_exp)

    def worker(v: int) -> np.ndarray:
        if not terms:
            counts = np.zeros(p, dtype=np.int64)
            counts[0] = p ** (n - 1)
            return counts
        acc = _eval_subgrid(terms, p, n, v, table)
        return np.bincount(acc.ravel(), minlength=p)

    total = sum(_map_chunks(worker, p, threads))
    return [int(x) for x in total]


def zero_count(poly: WPolynomial, field: PrimeField, threads: int = 1) -> int:
    """Number of points of F_p^n with f = 0."""
    return value_histogram(poly, field, threads)[0]


def common_zeros(polys: Sequence[WPolynomial], field: PrimeField,
                 threads: int = 1) -> list[tuple[int, ...]]:
    """All grid points where every polynomial vanishes, in lexicographic order.

    A polynomial that vanishes identically mod p imposes no constraint; when
    every one does, the whole grid is returned.
    """
    p = field.p
    if p > MAX_ENGINE_PRIME:
        raise ValueError(f"prime {p} too large for the int64 grid engine")
    if not polys:
        raise ValueError("no constraint polynomials given")
    n = polys[0].nvars
    if any(f.nvars != n for f in polys):
        raise ValueError("constraint polynomials must share one variable system")
    term_lists = [reduced_terms(f, field) for f in polys]
    # A constraint reducing to a nonzero constant mod p has no zeros anywhere;
    # one reducing to zero mod p constrains nothing and is dropped.
    for ts in term_lists:
        if ts and all(all(x == 0 for x in e) for e, _ in ts):
            return []
    term_lists = [ts for ts in term_lists if ts]
    if not term_lists:
        return list(product(range(p), repeat=n))
    # Constraints with few active variables prune hardest; evaluate them first.
    term_lists.sort(key=lambda ts: (len({i for e, _ in ts for i, x in enumerate(e) if x}), len(ts)))
    if n == 0:
        return [()]
    max_exp = max(max(e) for ts in term_lists for e, _ in ts)
    table = _power_table(p, max_exp)

    def worker(v: int) -> list[tuple[int, ...]]:
        first = _eval_subgrid(term_lists[0], p, n, v, table)
        if n == 1:
            if int(first) != 0:
                return []
            cols = [np.array([v], dtype=np.int64)]
        else:
            mask = first == 0
            if not mask.any():
                return []
            idx = np.nonzero(mask)
            cols = [np.full(idx[0].shape, v, dtype=np.int64)] + \
                   [a.astype(np.int64) for a in idx]
        for ts in term_lists[1:]:
            values = _eval_at_points(ts, p, cols, table)
            keep = values == 0
            if not keep.any():
                return []
            cols = [c[keep] for c in cols]
        stacked = np.stack(cols, axis=1)
        return [tuple(int(x) for x in row) for row in stacked]

    chunks = _map_chunks(worker, p, threads)
    out: list[tuple[int, ...]] = []
    for chunk in chunks:
        out.extend(chunk)
    return out


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
    """
    m, n = points.shape
    key_dtype = np.int64 if p ** n < 2**62 else object
    pows = np.array([p ** (n - 1 - i) for i in range(n)], dtype=key_dtype)
    d = np.zeros(m, dtype=np.int64)
    for i in range(n):
        d = np.gcd(d, np.where(points[:, i] % p != 0, weights[i], 0))
    keys = np.empty(m, dtype=key_dtype)
    for dv in np.unique(d):
        if dv == 0:
            keys[d == 0] = 0  # the zero point, callers exclude it
            continue
        sel = d == dv
        pts = points[sel]
        best = None
        for mu in range(1, p):
            scale = np.array([pow(mu, weights[i] // int(dv), p) for i in range(n)],
                             dtype=np.int64)
            cand = (pts * scale % p) @ pows
            best = cand if best is None else np.minimum(best, cand)
        keys[sel] = best
    return keys


def orbit_representatives(points: Sequence[tuple[int, ...]], weights: tuple[int, ...],
                          p: int) -> list[tuple[int, ...]]:
    """Distinct lex-smallest orbit members of nonzero points, in sorted order."""
    n = len(weights)
    keys = np.unique(orbit_min_keys(np.array(points, dtype=np.int64).reshape(-1, n),
                                    weights, p))
    return [tuple(int(k) // p ** (n - 1 - i) % p for i in range(n)) for k in keys]
