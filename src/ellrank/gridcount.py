"""Chunked, integer-exact evaluation of polynomials over F_p^n grids.

This is the one enumeration engine: every count, scan and orbit
canonicalization in the package runs here, at every grid size.  Each
variable ranges over an axis of residues (all of F_p unless a pre-solve has
shrunk it).  The product of the axes is walked in lexicographic order, in
blocks: a block fixes the shortest prefix of coordinates that leaves at most
CHUNK_CAP elements in the rest, so memory per block is bounded independently
of p.  Each block is evaluated with int64 numpy arrays (values stay below
p^2 < 2^62, so no overflow), reduced mod p after every multiply, and
aggregated by plain integer addition or concatenation in block order, so
results are independent of CHUNK_CAP and of the thread count.  Coefficients
involving omega reduce with the field's smallest primitive cube root, as in
WPolynomial.evaluate_mod_p.

Entry points:

  * value_histogram:       how often each residue occurs as a value of f on
                           F_p^n;
  * zero_count:            number of grid points with f = 0 (histogram[0]);
  * common_zeros:          an int64 array of shape (m, n), the grid points
                           where every polynomial in a list vanishes, in
                           lexicographic order.  A pre-solve first shrinks
                           each variable's axis to the roots of every
                           constraint whose reduced terms involve that
                           variable alone; only the product of those axes is
                           enumerated, with survivor compression (the first
                           remaining constraint is evaluated on the whole
                           block, the rest only at its zeros);
  * orbit_min_keys:        one integer key per point naming its weighted
                           projective orbit;
  * orbit_representatives: the distinct lex-smallest orbit members of a set
                           of points, decoded from those keys.

The per-point evaluator and tuple canonicalizer that the tests compare this
engine against live in tests/helpers.py.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .fields import PrimeField, primitive_cube_root
from .wpoly import WPolynomial, reduce_coefficient

MAX_ENGINE_PRIME = 2**31 - 1  # keeps residue products inside int64
CHUNK_CAP = 1 << 20  # most grid elements one block evaluates at once


def reduced_terms(poly: WPolynomial, field: PrimeField) -> list[tuple[tuple[int, ...], int]]:
    """Terms with coefficients reduced to nonzero residues mod p."""
    omega_image = primitive_cube_root(field) if poly.has_eisenstein_coefficients() else None
    out = []
    for exps, coeff in poly.terms.items():
        c = reduce_coefficient(coeff, field.p, omega_image)
        if c:
            out.append((exps, c))
    return sorted(out)  # deterministic evaluation order


def _check_prime(p: int):
    if p > MAX_ENGINE_PRIME:
        raise ValueError(f"prime {p} too large for the int64 grid engine")


def _power_table(p: int, term_lists) -> np.ndarray:
    """table[e, v] = v^e mod p for every exponent e up to the largest in the
    term lists, shape (max_exp + 1, p)."""
    max_exp = max((max(e, default=0) for ts in term_lists for e, _ in ts), default=0)
    table = np.ones((max_exp + 1, p), dtype=np.int64)
    v = np.arange(p, dtype=np.int64)
    for e in range(1, max_exp + 1):
        table[e] = table[e - 1] * v % p
    return table


def _eval_block(terms, p: int, prefix: tuple[int, ...], rest_axes,
                table: np.ndarray) -> np.ndarray:
    """Values of f on {prefix} x product(rest_axes), shape (len(a) for a in rest_axes)."""
    k, m = len(prefix), len(rest_axes)
    acc = np.zeros(tuple(len(a) for a in rest_axes), dtype=np.int64)
    for exps, c in terms:
        tv = c
        for v, e in zip(prefix, exps):
            tv = tv * int(table[e, v]) % p
        if tv == 0:
            continue
        arr = None
        for j, axis in enumerate(rest_axes):
            e = exps[k + j]
            if e == 0:
                continue
            col = table[e][axis].reshape((1,) * j + (-1,) + (1,) * (m - 1 - j))
            arr = col if arr is None else arr * col % p
        if arr is None:
            acc += tv
        else:
            acc = acc + tv * arr
        acc %= p
    return acc


def _eval_at_points(terms, p: int, points: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Values of f at the rows of an (m, n) array of points."""
    total = np.zeros(len(points), dtype=np.int64)
    for exps, c in terms:
        t = np.full(len(points), c, dtype=np.int64)
        for i, e in enumerate(exps):
            if e:
                t = t * table[e][points[:, i]] % p
        total = (total + t) % p
    return total


def _map_blocks(worker, axes: Sequence[np.ndarray], threads: int):
    """Yield worker(prefix, rest_axes) for every block of product(axes), in
    lexicographic order.

    The prefix is the shortest one that leaves at most CHUNK_CAP elements in
    rest_axes.  With threads > 1 at most 2 * threads blocks are in flight, so
    memory stays bounded however many blocks there are.
    """
    k, size = 0, prod(len(a) for a in axes)
    while size > CHUNK_CAP:
        size //= len(axes[k])
        k += 1
    rest = tuple(axes[k:])
    prefixes = product(*(a.tolist() for a in axes[:k]))
    if threads <= 1:
        for prefix in prefixes:
            yield worker(prefix, rest)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for prefix in prefixes:
            pending.append(pool.submit(worker, prefix, rest))
            if len(pending) > 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def value_histogram(poly: WPolynomial, field: PrimeField, threads: int = 1) -> list[int]:
    """Occurrences of each residue as a value of f over the full grid F_p^n."""
    p = field.p
    _check_prime(p)
    terms = reduced_terms(poly, field)
    table = _power_table(p, [terms])
    axes = [np.arange(p, dtype=np.int64)] * poly.nvars

    def worker(prefix, rest_axes) -> np.ndarray:
        values = _eval_block(terms, p, prefix, rest_axes, table)
        return np.bincount(values.ravel(), minlength=p)

    total = np.zeros(p, dtype=np.int64)
    for hist in _map_blocks(worker, axes, threads):
        total += hist
    return [int(x) for x in total]


def zero_count(poly: WPolynomial, field: PrimeField, threads: int = 1) -> int:
    """Number of points of F_p^n with f = 0."""
    return value_histogram(poly, field, threads)[0]


def _active(terms) -> set[int]:
    return {i for e, _ in terms for i, x in enumerate(e) if x}


def _presolve(polys: Sequence[WPolynomial], field: PrimeField):
    """Solve the one-variable constraints: (axes, remaining term lists, power table).

    axes[i] holds the residues still possible for variable i, ascending.  A
    constraint whose reduced terms involve exactly one variable shrinks that
    axis to its roots; one reducing to zero mod p constrains nothing and is
    dropped; one reducing to a nonzero constant empties every axis (and is
    kept, so that it also rejects the single point of a 0-variable grid).
    The remaining constraints, ordered so that those with few variables and
    few terms come first, must still be enumerated over product(axes).
    """
    p = field.p
    _check_prime(p)
    if not polys:
        raise ValueError("no constraint polynomials given")
    n = polys[0].nvars
    if any(f.nvars != n for f in polys):
        raise ValueError("constraint polynomials must share one variable system")
    term_lists = [ts for ts in (reduced_terms(f, field) for f in polys) if ts]
    table = _power_table(p, term_lists)
    axes = [np.arange(p, dtype=np.int64) for _ in range(n)]
    rest = []
    for ts in term_lists:
        active = _active(ts)
        if not active:
            return [np.empty(0, dtype=np.int64)] * n, [ts], table
        if len(active) > 1:
            rest.append(ts)
            continue
        (i,) = active
        values = np.zeros(len(axes[i]), dtype=np.int64)
        for exps, c in ts:
            values = (values + c * table[exps[i]][axes[i]]) % p
        axes[i] = axes[i][values == 0]
    rest.sort(key=lambda ts: (len(_active(ts)), len(ts)))
    return axes, rest, table


def common_zeros(polys: Sequence[WPolynomial], field: PrimeField, threads: int = 1,
                 budget: int | None = None, what: str = "common-zero scan") -> np.ndarray:
    """All grid points where every polynomial vanishes, in lexicographic order.

    Returns an int64 array of shape (m, n).  Only the product of the presolved
    axes is enumerated; when ``budget`` is given and that product exceeds it,
    raises BudgetExceededError naming the product as the required budget.  A
    polynomial that vanishes identically mod p imposes no constraint; when
    every one does, the whole grid is returned.
    """
    p = field.p
    axes, rest, table = _presolve(polys, field)
    n = len(axes)
    size = prod(len(a) for a in axes)
    if budget is not None and size > budget:
        raise BudgetExceededError(required=size, budget=budget, what=what)
    if size == 0:
        return np.empty((0, n), dtype=np.int64)

    def worker(prefix, rest_axes) -> np.ndarray:
        shape = tuple(len(a) for a in rest_axes)
        if rest:
            flat = np.flatnonzero(_eval_block(rest[0], p, prefix, rest_axes, table) == 0)
        else:
            flat = np.arange(prod(shape))
        points = np.empty((flat.size, n), dtype=np.int64)
        points[:, :len(prefix)] = prefix
        if shape:
            for j, idx in enumerate(np.unravel_index(flat, shape)):
                points[:, len(prefix) + j] = rest_axes[j][idx]
        for ts in rest[1:]:
            points = points[_eval_at_points(ts, p, points, table) == 0]
        return points

    return np.concatenate(list(_map_blocks(worker, axes, threads)))


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
