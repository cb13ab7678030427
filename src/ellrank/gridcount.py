"""Chunked, integer-exact evaluation of polynomials over F_p^n grids.

This is the one enumeration engine: every count and scan in the package
runs here, at every grid size.  Each
variable ranges over an axis of residues (all of F_p unless a pre-solve has
shrunk it).  The product of the axes is walked in lexicographic order, in
blocks: a block fixes the shortest prefix of coordinates that leaves at most
CHUNK_CAP elements in the rest, so memory per block is bounded independently
of p, and the blocks stream: a caller that consumes them one by one holds
one block per thread.  Each block is evaluated with int64 numpy arrays: a
term's product is reduced mod p after every multiply on the term's own
broadcast shape, the terms are summed by the set of variables they involve
and those sums by connected component of the variables, the components are
added into the block, and the block is reduced mod p once, so values stay
below len(terms) * p < 2^63.  Blocks are aggregated by plain integer
addition or concatenation in block order, so results are independent of
CHUNK_CAP and of the thread count.  Coefficients involving omega reduce
with the field's smallest primitive cube root.  This module is the package's
only evaluator of polynomials mod p.

Entry points:

  * values_at:             the values of f at the rows of an (m, n) array of
                           points, coordinates reduced mod p first;
  * value_histogram:       how often each residue occurs as a value of f on
                           F_p^n.  f is split into parts on disjoint sets of
                           variables; each part's histogram is enumerated
                           over its own variables only, and the parts'
                           histograms are combined by exact cyclic
                           convolution mod p (y^2 - x^3 - f(s, t, u) walks
                           p + p + p^3 points, not p^5);
  * zero_count:            number of grid points with f = 0 (histogram[0]);
  * zero_blocks:           the grid points where every polynomial in a list
                           vanishes, as a stream of int64 blocks of shape
                           (m, n) in lexicographic order.  A pre-solve first
                           shrinks each variable's axis to the roots of every
                           constraint whose reduced terms involve that
                           variable alone; only the product of those axes is
                           enumerated, with survivor compression (the first
                           remaining constraint is evaluated on the whole
                           block, the rest only at its zeros);
  * common_zeros:          those blocks joined into one array; given the
                           weights, each block first keeps only its orbit
                           minima, so a weighted-homogeneous system yields
                           one row per projective point;
  * is_orbit_min, orbit_min_keys and orbit_representatives, re-exported
    from the orbits module: the weighted projective orbits of points, each
    named by its lex-smallest member.

The per-point evaluator, value histogram and tuple canonicalizer that the
tests compare this engine against live in tests/helpers.py.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .fields import PrimeField, primitive_cube_root
# re-exported: the engine's callers (and the benchmark's layer spans) reach
# the orbit functions as gridcount.*
from .orbits import is_orbit_min, orbit_min_keys, orbit_representatives  # noqa: F401
from .wpoly import WPolynomial

MAX_ENGINE_PRIME = 2**31 - 1  # keeps residue products inside int64
CHUNK_CAP = 1 << 20  # most grid elements one block evaluates at once


def reduced_terms(poly: WPolynomial, field: PrimeField) -> list[tuple[tuple[int, ...], int]]:
    """Terms with coefficients reduced to nonzero residues mod p.

    Over Z[omega], omega goes to the field's smallest primitive cube root
    (ValueError unless p = 1 mod 3); a rational coefficient reduces through
    the inverse of its denominator (ZeroDivisionError when p divides it).
    """
    p = field.p
    omega = primitive_cube_root(field) if poly.has_eisenstein_coefficients() else None
    out = []
    for exps, coeff in poly.terms.items():
        if omega is not None:
            c = coeff.reduce(p, omega)
        elif coeff.denominator % p:
            c = coeff.numerator * pow(coeff.denominator, p - 2, p) % p
        else:
            raise ZeroDivisionError(f"coefficient {coeff} has denominator divisible by {p}")
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
    """Values of f on {prefix} x product(rest_axes), shape (len(a) for a in rest_axes).

    Terms are grouped by the rest axes they involve, and the groups by the
    connected components of those axes (union-find, as in _components).
    Each term's product is reduced mod p on its own broadcast shape (a term
    in z1 and z3 only is a len(z1) x 1 x len(z3) array), each component's
    groups are summed in place on the component's shape, and the components
    are added into the block, which is reduced mod p once.  A component that
    spans the whole block becomes the block itself.  Every addend is below
    p, so the sums stay below len(terms) * p.
    """
    k, m = len(prefix), len(rest_axes)
    constant, groups = 0, {}
    for exps, c in terms:
        tv = c
        for v, e in zip(prefix, exps):
            tv = tv * int(table[e, v]) % p
        if tv == 0:
            continue
        axes = tuple(j for j in range(m) if exps[k + j])
        if not axes:
            constant += tv
            continue
        arr = tv
        for j in axes:
            col = table[exps[k + j]][rest_axes[j]].reshape((1,) * j + (-1,) + (1,) * (m - 1 - j))
            arr = arr * col % p
        if axes in groups:
            groups[axes] += arr
        else:
            groups[axes] = arr
    root = _union_find(m, groups)
    components: dict[int, list[np.ndarray]] = {}
    for axes, arr in groups.items():
        components.setdefault(root(axes[0]), []).append(arr)
    sums = [_sum_into(arrs, np.broadcast_shapes(*(a.shape for a in arrs)))
            for arrs in components.values()]
    acc = _sum_into(sums, tuple(len(a) for a in rest_axes), constant)
    acc %= p
    return acc


def _sum_into(arrs: list[np.ndarray], shape: tuple[int, ...], constant: int = 0) -> np.ndarray:
    """constant + sum(arrs) on ``shape``, for owned int64 arrays that broadcast
    to it.  The largest addend is the accumulator when it already has the
    shape; otherwise one array of the shape is allocated."""
    arrs = sorted(arrs, key=lambda a: a.size, reverse=True)
    if arrs and arrs[0].shape == shape:
        acc = arrs.pop(0)
        if constant:
            acc += constant
    else:
        acc = np.full(shape, constant, dtype=np.int64)
    for arr in arrs:
        acc += arr
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


def values_at(poly: WPolynomial, field: PrimeField, points) -> np.ndarray:
    """f mod p at each row of an (m, n) array of integer points, as an int64
    array of length m.  Coordinates are reduced mod p first, so any integer
    representatives may be given."""
    p = field.p
    _check_prime(p)
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != poly.nvars:
        raise ValueError(f"points of shape {points.shape} do not have {poly.nvars} coordinates")
    terms = reduced_terms(poly, field)
    return _eval_at_points(terms, p, points % p, _power_table(p, [terms]))


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
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: only when used
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for prefix in prefixes:
            pending.append(pool.submit(worker, prefix, rest))
            if len(pending) > 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _union_find(n: int, supports):
    """root(i) for the connected components of range(n), two elements being
    joined when they occur in one support (an iterable of index lists)."""
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for support in supports:
        for i in support[1:]:
            parent[root(i)] = root(support[0])
    return root


def _components(terms, nvars: int):
    """Split f = constant + sum_c f_c(vars_c) into variable-disjoint parts.

    Union-find on the term supports.  Returns (parts, constant, free): each
    part is the term list of one f_c over its own variables vars_c, and free
    counts the variables that occur in no term.
    """
    constant, supported = 0, []
    for exps, c in terms:
        active = [i for i, e in enumerate(exps) if e]
        if active:
            supported.append((active, exps, c))
        else:
            constant += c
    root = _union_find(nvars, (active for active, _, _ in supported))
    groups: dict[int, list] = {}
    for active, exps, c in supported:
        groups.setdefault(root(active[0]), []).append((exps, c))
    used = sorted({i for active, _, _ in supported for i in active})
    parts = []
    for r, group in groups.items():
        cols = [i for i in used if root(i) == r]
        parts.append([(tuple(exps[i] for i in cols), c) for exps, c in group])
    return parts, constant, nvars - len(used)


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[v] = sum_s a[s] b[v - s mod p], one shifted row of the sparser side
    per nonzero entry, so memory stays O(p)."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros_like(b)
    for s in np.flatnonzero(a):
        out += a[s] * np.roll(b, s)
    return out


def value_histogram(poly: WPolynomial, field: PrimeField, threads: int = 1) -> list[int]:
    """Occurrences of each residue as a value of f over the full grid F_p^n.

    f splits into variable-disjoint parts (see _components), so the histogram
    is the cyclic convolution mod p of the parts' histograms, each enumerated
    over its own variables only, shifted by the constant term and multiplied
    by p for every variable that occurs in no term.  Counts are exact: int64
    while p^n < 2^62, Python integers beyond.
    """
    p = field.p
    _check_prime(p)
    terms = reduced_terms(poly, field)
    table = _power_table(p, [terms])
    parts, constant, free = _components(terms, poly.nvars)
    dtype = np.int64 if p ** poly.nvars < 2**62 else object
    total = np.zeros(p, dtype=dtype)
    total[constant % p] = p ** free

    for part in parts:
        def worker(prefix, rest_axes, part=part) -> np.ndarray:
            values = _eval_block(part, p, prefix, rest_axes, table)
            return np.bincount(values.ravel(), minlength=p)

        hist = np.zeros(p, dtype=np.int64)
        axes = [np.arange(p, dtype=np.int64)] * len(part[0][0])
        for block in _map_blocks(worker, axes, threads):
            hist += block
        total = _cyclic_convolve(total, hist.astype(dtype))
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


def zero_blocks(polys: Sequence[WPolynomial], field: PrimeField, threads: int = 1,
                budget: int | None = None, what: str = "common-zero scan"):
    """Yield the grid points where every polynomial vanishes, block by block.

    Each block is an int64 array of shape (m, n), its rows in lexicographic
    order, and the blocks follow one another in that order, so memory is
    bounded by the block size, not by the number of solutions.  Only the
    product of the presolved axes is enumerated; when ``budget`` is given and
    that product exceeds it, raises BudgetExceededError naming the product as
    the required budget.  A polynomial that vanishes identically mod p
    imposes no constraint; when every one does, the blocks cover the whole
    grid.  An empty grid yields one empty block.
    """
    p = field.p
    axes, rest, table = _presolve(polys, field)
    n = len(axes)
    size = prod(len(a) for a in axes)
    if budget is not None and size > budget:
        raise BudgetExceededError(required=size, budget=budget, what=what)
    if size == 0:
        yield np.empty((0, n), dtype=np.int64)
        return

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

    yield from _map_blocks(worker, axes, threads)


def common_zeros(polys: Sequence[WPolynomial], field: PrimeField, threads: int = 1,
                 budget: int | None = None, what: str = "common-zero scan",
                 weights: tuple[int, ...] | None = None) -> np.ndarray:
    """All grid points where every polynomial vanishes, in lexicographic order:
    the blocks of zero_blocks joined into one int64 array of shape (m, n).

    With ``weights``, each block keeps only its is_orbit_min rows before the
    join: one lex-smallest member per orbit, the zero point dropped.  This
    lists the projective points when the common zeros are closed under the
    support-reduced scaling, as those of weighted-homogeneous polynomials are.
    """
    blocks = zero_blocks(polys, field, threads, budget, what)
    if weights is not None:
        blocks = (b[is_orbit_min(b, weights, field.p)] for b in blocks)
    return np.concatenate(list(blocks))
