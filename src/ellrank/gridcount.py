"""Chunked, integer-exact evaluation of polynomials over F_p^n grids.

The one enumeration engine and the package's only evaluator of polynomials
mod p: every count and scan runs here, at every grid size.  Each variable
ranges over an axis of residues (all of F_p unless a pre-solve has shrunk
it), and the product of the axes is walked in lexicographic order, in blocks
of at most CHUNK_CAP elements (_split), so memory per block is bounded
independently of p and the blocks stream.  Each term list is planned once
per call (_BlockPlan).  A block is an int64 numpy array: the prefix is
folded into one coefficient per rest monomial, each monomial is reduced mod
p on its own broadcast shape, and their sum is left unreduced, below the
plan's bound.  The consumer reduces once: the histogram by % p, the walk by
a gather from a table of the multiples of p.  Powers are computed where they
are used (_powers), so memory is the O(p) axes and tables, each plan's
shared array and, per thread, one block or the rows of its zeros (_walk),
whatever the exponents.  Blocks combine by integer addition or
concatenation in block order, so results do not depend on CHUNK_CAP or the
thread count.
Coefficients involving omega reduce with the field's smallest primitive
cube root.

Entry points:

  * values_at:          f at the rows of an (m, n) array of points;
  * value_histogram(s): how often each residue occurs as a value of f on
                        F_p^n, convolved from the histograms of f's
                        variable-disjoint parts (y^2 - x^3 - f(s, t, u)
                        walks p + p + p^3 points, not p^5), a part shared by
                        several polynomials enumerated once; entry 0 is
                        the number of zeros;
  * common_zeros:       the common zeros of a list of polynomials on the
                        grid a pre-solve of the one-variable constraints
                        leaves, walked in lexicographic blocks and joined;
                        given the weights, only the orbit minima are walked,
                        one product grid per support (p^2 + p + 1 points for
                        the built-in singular scan), and the rows are sorted
                        once;
  * zero_count:         how many there are, the same walk summed block by
                        block (with one constraint left, no block builds its
                        rows);
  * chart_axes, orbit_min_grids, orbit_min_keys: the orbits module's,
                        imported with this one.

The per-point oracles the tests compare this engine against live in
tests/helpers.py.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import product
from math import prod
from typing import Sequence

# ellrank's sources before numpy: wpoly and orbits compile before numpy
# loads.  Callers and the benchmark's layer spans read orbit_min_keys here.
from .errors import charge
from .fields import EisensteinInt, PrimeField, primitive_cube_root
from .wpoly import WPolynomial
from .orbits import chart_axes, orbit_min_grids, orbit_min_keys

import numpy as np

MAX_ENGINE_PRIME = 2**31 - 1  # keeps residue products inside int64
CHUNK_CAP = 1 << 16  # most grid elements one block holds: 512 KB of int64


def reduced_terms(poly: WPolynomial, field: PrimeField) -> list[tuple[tuple[int, ...], int]]:
    """Terms with coefficients reduced to nonzero residues mod p.

    Each coefficient reduces by its own type: an int by coeff % p, an
    EisensteinInt by sending omega to the field's smallest primitive cube
    root, so only a polynomial in which an omega part survives raises
    ValueError at p != 1 mod 3.
    """
    p = field.p
    omega = primitive_cube_root(field) if poly.has_eisenstein_coefficients() else None
    out = []
    for exps, coeff in poly.terms.items():
        c = coeff.reduce(p, omega) if isinstance(coeff, EisensteinInt) else coeff % p
        if c:
            out.append((exps, c))
    return sorted(out)  # deterministic evaluation order


def _check_prime(p: int):
    if p > MAX_ENGINE_PRIME:
        raise ValueError(f"prime {p} too large for the int64 grid engine")


def _powers(values: np.ndarray, e: int, p: int) -> np.ndarray:
    """values^e mod p for an int64 array of residues and e >= 1, by
    square-and-multiply, each product reduced at once (below p^2 < 2^62).
    For e = 1 this is values itself, which callers only read."""
    out = values if e & 1 else None
    while e > 1:
        e >>= 1
        values = values * values % p
        if e & 1:
            out = values if out is None else out * values % p
    return out


def _fold(coefficient, prefix: tuple[int, ...], p: int) -> int:
    """A rest monomial's coefficient in a block: fixed + sum c * prod(v^e)
    mod p over its (c, [(i, e), ...]) prefix terms, v = prefix[i]."""
    total, terms = coefficient
    for c, powers in terms:
        for i, e in powers:
            c = c * pow(prefix[i], e, p) % p
        total += c
    return total % p


def _group_arrays(groups, prefix, column, p: int) -> list[np.ndarray]:
    """One array per (support, monomials) group: the sum of its monomials,
    each reduced mod p after every multiply on the group's broadcast shape.
    column(j, e) is the column of rest axis j to the power e; a group whose
    coefficients all fold to 0 gives no array."""
    arrs = []
    for support, monomials in groups:
        arr = None
        for rest_exps, coefficient in monomials:
            c = _fold(coefficient, prefix, p)
            if not c:
                continue
            term = c
            for j in support:
                term = term * column(j, rest_exps[j])
                term %= p
            if arr is None:
                arr = term
            else:
                arr += term
        if arr is not None:
            arrs.append(arr)
    return arrs


class _BlockPlan:
    """What the blocks of one term list over product(axes) share, when each
    block fixes axes[:k] and takes a slice of axes[k] (see _split).

    Terms are regrouped by their rest monomial (exponents on axes[k:]); the
    coefficient of a rest monomial is its terms' prefix-free part plus the
    terms whose prefix powers each block folds in.  The rest monomials are
    grouped by the rest axes they involve (their support).  A monomial that
    involves neither a prefix coordinate nor the sliced axis has the same
    array in every block: all such monomials are summed once here into one
    read-only array over the tail shape (1,) + axes[k+1:], which holds at
    most CHUNK_CAP elements (see _split).  The other groups vary from block
    to block.  The tail columns, powers of axes[k+1:], are computed once.
    Each rest monomial adds a residue to a block, so its unreduced values lie
    in [0, bound).  A plan is built before the blocks run and only read while
    they run, so threads share it.
    """

    def __init__(self, terms, p: int, axes: Sequence, k: int):
        m = len(axes) - k
        self.p = p
        self.shapes = [(1,) * j + (-1,) + (1,) * (m - 1 - j) for j in range(m)]
        by_rest: dict[tuple[int, ...], list] = {}
        for exps, c in terms:
            powers = [(i, e) for i, e in enumerate(exps[:k]) if e]
            by_rest.setdefault(exps[k:], []).append((c, powers))
        coefficients = {rest: (sum(c for c, powers in ts if not powers) % p,
                               [(c, powers) for c, powers in ts if powers])
                        for rest, ts in by_rest.items()}
        self.bound = max(len(coefficients), 1) * p
        self.constant = [coef for rest, coef in coefficients.items() if not any(rest)]
        support = {rest: tuple(j for j, e in enumerate(rest) if e)
                   for rest in coefficients if any(rest)}
        self.columns = {(j, rest[j]): _powers(axes[k + j], rest[j], p).reshape(self.shapes[j])
                        for rest, js in support.items() for j in js if j}
        shared: dict[tuple[int, ...], list] = {}
        varying: dict[tuple[int, ...], list] = {}
        for rest, js in support.items():
            fixed = js[0] != 0 and not coefficients[rest][1]
            (shared if fixed else varying).setdefault(js, []).append((rest, coefficients[rest]))
        self.varying = list(varying.items())
        self.shared = None
        arrs = _group_arrays(shared.items(), (), lambda j, e: self.columns[j, e], p)
        if arrs:
            self.shared = _sum_into(arrs, (1,) + tuple(len(a) for a in axes[k + 1:]))
            self.shared.flags.writeable = False  # added into every block, never written


def _eval_block(plan: _BlockPlan, prefix: tuple[int, ...], rest_axes) -> np.ndarray:
    """Values of f on {prefix} x product(rest_axes), shape (len(a) for a in rest_axes),
    unreduced: congruent to f mod p and in [0, plan.bound).

    rest_axes[0] may be any slice of the axis the plan was built for and
    rest_axes[1:] must be its tail axes.  The prefix is folded into one
    scalar coefficient per rest monomial; only the varying groups are
    evaluated, each on its own broadcast shape (a monomial in z1 and z3 only
    is a len(z1) x 1 x len(z3) array).  They, the plan's shared array and
    the folded constant are added into the block; a group that spans the
    whole block becomes the block itself.
    """
    p = plan.p
    sliced: dict[int, np.ndarray] = {}

    def column(j: int, e: int) -> np.ndarray:
        if j:
            return plan.columns[j, e]
        if e not in sliced:
            sliced[e] = _powers(rest_axes[0], e, p).reshape(plan.shapes[0])
        return sliced[e]

    constant = sum(_fold(coef, prefix, p) for coef in plan.constant)
    arrs = _group_arrays(plan.varying, prefix, column, p)
    if plan.shared is not None:
        arrs.append(plan.shared)
    return _sum_into(arrs, tuple(len(a) for a in rest_axes), constant)


def _sum_into(arrs: list[np.ndarray], shape: tuple[int, ...], constant: int = 0) -> np.ndarray:
    """constant + sum(arrs) on ``shape``, for int64 arrays that broadcast to
    it.  Writable addends are owned by the sum and may be written: the
    constant goes into the smallest of them, and the largest that already
    has the shape is the accumulator.  Otherwise one array of the shape is
    allocated, holding the sum of the two largest addends.  At most one
    addend may be read-only, and it is never written."""
    arrs = sorted(arrs, key=lambda a: a.size, reverse=True)
    owned = [i for i, a in enumerate(arrs) if a.flags.writeable]
    if constant and owned:
        arrs[owned[-1]] += constant  # every element of the sum takes one element of it
        constant = 0
    spans = [i for i in owned if arrs[i].shape == shape]
    if spans:
        acc = arrs.pop(spans[0])
    elif len(arrs) > 1:
        acc = np.add(arrs.pop(0), arrs.pop(0), out=np.empty(shape, dtype=np.int64))
    else:
        acc = np.full(shape, constant, dtype=np.int64)
    for arr in arrs:
        acc += arr
    return acc


def _eval_at_points(terms, p: int, points: np.ndarray) -> np.ndarray:
    """Values of f at the rows of an (m, n) array of residues.  Each term is
    below p, so the sum stays below len(terms) * p until the one reduction."""
    total = np.zeros(len(points), dtype=np.int64)
    for exps, c in terms:
        t = c
        for i, e in enumerate(exps):
            if e:
                t = t * _powers(points[:, i], e, p)
                t %= p
        total += t
    total %= p
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
    return _eval_at_points(terms, p, points % p)


def _split(axes: Sequence[np.ndarray]) -> tuple[int, int]:
    """(k, step): each block of product(axes) fixes axes[:k] and takes step
    consecutive values of axes[k], the axes after it whole.

    k is the shortest prefix after which the axes behind the next one hold at
    most CHUNK_CAP elements, inner = len(axes[k+1]) * ...; step is
    CHUNK_CAP // inner, so a block holds at most CHUNK_CAP elements and a
    grid that fits is one block.  A 0-variable grid has k = 0 and no axis to
    cut (step 0).
    """
    if not axes:
        return 0, 0
    k, inner = 0, prod(len(a) for a in axes[1:])
    while inner > CHUNK_CAP:
        k += 1
        inner //= len(axes[k])
    return k, CHUNK_CAP // max(inner, 1)


def _map_blocks(worker, axes: Sequence[np.ndarray], threads: int):
    """Yield worker(prefix, rest_axes) for every block of product(axes), in
    lexicographic order.

    A block fixes the prefix axes[:k] and takes rest_axes = (a slice of
    axes[k],) + axes[k+1:], the split of _split; a 0-variable grid is one
    block with no rest axes, and a grid with an empty axis may have none.
    With threads > 1, min(threads, os.cpu_count()) workers hold at most
    twice as many blocks in flight: threads and memory stay bounded.
    """
    k, step = _split(axes)
    tail = tuple(axes[k + 1:])
    slices = [()] if not axes else \
        [(axes[k][i:i + step],) + tail for i in range(0, len(axes[k]), step)]
    blocks = ((prefix, rest) for prefix in product(*(a.tolist() for a in axes[:k]))
              for rest in slices)
    if threads <= 1:
        for prefix, rest in blocks:
            yield worker(prefix, rest)
        return
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: only when used
    workers = min(threads, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for prefix, rest in blocks:
            pending.append(pool.submit(worker, prefix, rest))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _components(terms, nvars: int):
    """Split f = constant + sum_c f_c(vars_c) into variable-disjoint parts.

    The variable sets are merged as the terms arrive: a term's variables
    join every set that shares one with them.  Returns (parts, constant,
    free): each part is the term list of one f_c over its own variables
    vars_c, in input order, and free counts the variables that occur in no
    term.
    """
    constant, groups = 0, []
    for exps, c in terms:
        variables = {i for i, e in enumerate(exps) if e}
        if not variables:
            constant += c
            continue
        for group in [g for g in groups if g & variables]:
            groups.remove(group)
            variables |= group
        groups.append(variables)
    parts = []
    for group in groups:
        cols = sorted(group)
        parts.append([(tuple(exps[i] for i in cols), c) for exps, c in terms
                      if any(exps[i] for i in cols)])
    return parts, constant, nvars - sum(map(len, groups))


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[v] = sum_s a[s] b[v - s mod p]: b shifted by s, in two slices, per
    nonzero entry of the sparser side, so memory stays O(p)."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros_like(b)
    p = len(b)
    for s in np.flatnonzero(a).tolist():
        out[s:] += a[s] * b[:p - s]
        out[:s] += a[s] * b[p - s:]
    return out


def value_histograms(polys: Sequence[WPolynomial], field: PrimeField,
                     threads: int = 1) -> list[list[int]]:
    """value_histogram of each polynomial, a part (see _components) that
    several of them share enumerated once: the restrictions of one
    polynomial to coordinate subsets repeat a few parts many times."""
    p = field.p
    _check_prime(p)
    term_lists = [reduced_terms(poly, field) for poly in polys]
    seen = {}  # part -> its histogram over its own variables
    out = []
    for poly, terms in zip(polys, term_lists):
        parts, constant, free = _components(terms, poly.nvars)
        dtype = np.int64 if p ** poly.nvars < 2**62 else object
        total = np.zeros(p, dtype=dtype)
        total[constant % p] = p ** free
        for part in map(tuple, parts):
            if part not in seen:
                axes = [np.arange(p, dtype=np.int64)] * len(part[0][0])
                plan = _BlockPlan(part, p, axes, _split(axes)[0])

                def worker(prefix, rest_axes, plan=plan) -> np.ndarray:
                    acc = _eval_block(plan, prefix, rest_axes)
                    acc %= p
                    return np.bincount(acc.ravel(), minlength=p)

                seen[part] = sum(_map_blocks(worker, axes, threads))
            total = _cyclic_convolve(total, seen[part].astype(dtype))
        out.append([int(x) for x in total])
    return out


def value_histogram(poly: WPolynomial, field: PrimeField, threads: int = 1) -> list[int]:
    """Occurrences of each residue as a value of f over the full grid F_p^n.

    f splits into variable-disjoint parts (see _components), so the histogram
    is the cyclic convolution mod p of the parts' histograms, each enumerated
    over its own variables only, shifted by the constant term and multiplied
    by p for every variable that occurs in no term.  Counts are exact: int64
    while p^n < 2^62, Python integers beyond.
    """
    return value_histograms([poly], field, threads)[0]


def _active(terms) -> set[int]:
    return {i for e, _ in terms for i, x in enumerate(e) if x}


def _presolve(polys: Sequence[WPolynomial], field: PrimeField):
    """Solve the one-variable constraints: (axes, remaining term lists).

    axes[i] holds the residues still possible for variable i, ascending; the
    axes no constraint cuts are one shared read-only arange.  A constraint
    whose reduced terms involve exactly one variable shrinks that axis to
    its roots (a single term c * x^e, whose one root is 0, is evaluated only
    at the axis's first residue); one reducing to zero mod p constrains
    nothing and is dropped; one reducing to a nonzero constant empties every
    axis (and is kept, so that it also rejects the single point of a
    0-variable grid).  The remaining constraints, ordered so that those with
    few variables and few terms come first, must still be enumerated over
    product(axes).  Only the one-variable constraints are evaluated here,
    each on its own axis, so a grid over budget costs nothing for the
    others.
    """
    p = field.p
    _check_prime(p)
    if not polys:
        raise ValueError("no constraint polynomials given")
    n = polys[0].nvars
    if any(f.nvars != n for f in polys):
        raise ValueError("constraint polynomials must share one variable system")
    term_lists = [ts for ts in (reduced_terms(f, field) for f in polys) if ts]
    whole = np.arange(p, dtype=np.int64)
    whole.flags.writeable = False
    axes = [whole] * n
    rest, solo = [], []
    for ts in term_lists:
        active = _active(ts)
        if not active:
            return [np.empty(0, dtype=np.int64)] * n, [ts]
        (rest if len(active) > 1 else solo).append(ts)
    for ts in solo:
        (i,) = _active(ts)
        axis = axes[i][:1] if len(ts) == 1 else axes[i]
        column = [((exps[i],), c) for exps, c in ts]
        axes[i] = axis[_eval_at_points(column, p, axis[:, None]) == 0]
    rest.sort(key=lambda ts: (len(_active(ts)), len(ts)))
    return axes, rest


def _multiples(p: int, bound: int) -> np.ndarray:
    """Read-only table of v % p == 0 for v below min(bound, 8p): at most as
    many bytes as one int64 axis of F_p."""
    multiple = np.zeros(min(bound, 8 * p), dtype=bool)
    multiple[::p] = True
    multiple.flags.writeable = False  # read by every block
    return multiple


def _walk(polys, field: PrimeField, threads: int, budget, what: str, weights=None,
          count: bool = False):
    """Yield common_zeros' blocks, or with ``count`` each block's number of
    zeros, grid by grid: the presolved grid, or given the weights its
    orbit_min_grids, whose blocks need no orbit test.  Survivor
    compression: the first remaining constraint is evaluated on the whole
    block, its zeros read from the unreduced block by a gather from
    _multiples (a block whose bound passes the table is reduced first), the
    rest only at those zeros; a count that no other constraint follows
    counts the gather.  A worker holds one block at a time and nothing the
    block no longer needs: it drops the block once the zero mask is read
    from it, and the mask once the zeros' flat indices are, then writes the
    zeros' rows column by column from those indices (their digits, last axis
    first).  A walk with no point to visit yields one empty block, or 0.
    The budget is charged the grid, or given the weights the charts of
    P(weights) within it (chart_axes), before any grid is split, constraint
    planned or table built."""
    p = field.p
    axes, rest = _presolve(polys, field)
    n = len(axes)
    grids = [axes] if weights is None else chart_axes(axes, weights, field)
    size = sum(prod(len(a) for a in grid) for grid in grids)
    charge(size, budget, what)
    if weights is not None:
        grids = list(orbit_min_grids(axes, weights, field))
    if not size or not grids:
        yield 0 if count else np.empty((0, n), dtype=np.int64)
        return
    gather_only = count and len(rest) <= 1
    for grid in grids:
        # a term with a positive exponent on an axis of {0} alone vanishes on the grid
        terms = [(exps, c) for exps, c in (rest[0] if rest else [])
                 if not any(e and len(a) == 1 and not a[0] for e, a in zip(exps, grid))]
        plan = _BlockPlan(terms, p, grid, _split(grid)[0])
        multiple = _multiples(p, plan.bound)

        def worker(prefix, rest_axes, plan=plan, multiple=multiple):
            shape = tuple(len(a) for a in rest_axes)
            acc = _eval_block(plan, prefix, rest_axes)
            if plan.bound > len(multiple):
                acc %= p
            zero = multiple[acc]
            del acc  # only the block's zeros are read from here on
            if gather_only:
                return int(np.count_nonzero(zero))
            flat = np.flatnonzero(zero)
            del zero
            points = np.empty((flat.size, n), dtype=np.int64)
            points[:, :len(prefix)] = prefix
            for j in reversed(range(len(shape))):  # the flat index's digits, last axis first
                points[:, len(prefix) + j] = rest_axes[j][flat % shape[j]]
                flat //= shape[j]
            del flat
            for ts in rest[1:]:
                if not len(points):
                    break
                points = points[_eval_at_points(ts, p, points) == 0]
            return len(points) if count else points

        yield from _map_blocks(worker, grid, threads)


def zero_count(polys: Sequence[WPolynomial], field: PrimeField, threads: int = 1,
               weights: tuple[int, ...] | None = None) -> int:
    """len(common_zeros(polys, field, threads, weights=weights)), the blocks'
    counts summed without joining them, and no budget: callers charge
    their own."""
    return sum(_walk(polys, field, threads, None, "common-zero count", weights, count=True))


def common_zeros(polys: Sequence[WPolynomial], field: PrimeField, threads: int = 1,
                 budget: int | None = None, what: str = "common-zero scan",
                 weights: tuple[int, ...] | None = None) -> np.ndarray:
    """The grid points where every polynomial vanishes, as one int64 array
    of shape (m, n) in lexicographic order, joined from blocks that each
    hold at most CHUNK_CAP grid points.  Only the product of the presolved
    axes is walked, and ``budget`` caps it (BudgetExceededError names the
    product).  A polynomial that vanishes identically mod p imposes no
    constraint; an empty grid gives shape (0, n).

    With ``weights`` ``budget`` caps the charts of P(weights) within that
    grid (orbits.chart_axes), and only the grid's points that are their
    orbit's lex-smallest member are walked (orbits.orbit_min_grids), the
    zero point dropped: the projective points, when the zeros are closed
    under the support-reduced scaling, as those of weighted-homogeneous
    polynomials are.  Their grids interleave, so the rows are sorted once.
    """
    zeros = np.concatenate(list(_walk(polys, field, threads, budget, what, weights)))
    if weights is not None and zeros.shape[1]:  # lexsort takes no empty key list
        zeros = zeros[np.lexsort(zeros.T[::-1])]
    return zeros
