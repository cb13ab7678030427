"""The grid engine's block kernel and its identities: orbit keys and the
orbit-minimum test by a stabilizer chain, and value histograms convolved from
variable-disjoint parts.  All are checked against the per-point oracles in
helpers.py."""

import os
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrank import gridcount
from ellrank.counting import count_projective
from ellrank.curves import defining_polynomial
from ellrank.errors import BudgetExceededError
from ellrank.fields import make_field, power_coset_representatives
from ellrank.parsing import parse_polynomial
from ellrank.singular import singular_points
from ellrank.wpoly import WPolynomial, support_gcd
from helpers import (_common_zeros_python, _point_evaluator, _value_histogram_python,
                     canonical_representative, random_homogeneous)

CURVE = defining_polynomial()


def _zero_blocks(polys, field, threads=1, weights=None):
    # the walk's blocks of common zeros, which common_zeros joins
    return list(gridcount._walk(polys, field, threads, None, "common-zero scan", weights))


def _oracle_keys(points, weights, p):
    n = len(weights)
    return [sum(c * p ** (n - 1 - i)
                for i, c in enumerate(canonical_representative(pt, weights, p)))
            for pt in points]


def _random_points(rng, n, p, m):
    # each coordinate is zero with probability 0.4, so every support occurs
    return np.array([[0 if rng.random() < 0.4 else rng.randrange(1, p) for _ in range(n)]
                     for _ in range(m)], dtype=np.int64).reshape(m, n)


# ---- block kernel -------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 10007, 2**31 - 1])
def test_powers_match_pow(p):
    # square-and-multiply on int64 stays exact up to the largest engine prime
    rng = random.Random(f"powers {p}")
    residues = [0, 1, p - 1] + [rng.randrange(p) for _ in range(20)]
    values = np.array(residues, dtype=np.int64)
    for e in range(1, 1025):
        got = gridcount._powers(values, e, p)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(v, e, p) for v in residues], e
    assert values.tolist() == residues  # the input is only read


EVAL_BLOCK_CASES = [
    # thirty terms on the axis set {x, y}, six on {z}, and a constant
    (" + ".join(f"{a + b}*x^{a}*y^{b}" for a in range(1, 7) for b in range(1, 6))
     + " + 3*z^2 + z^3 + 5*z^4 + z^5 + 2*z^6 + z + 11", "x,y,z"),
    ("x*y^2 + x^2*z + 3*y*z - 2*w^5 + x*y*z*w + 7", "x,y,z,w"),  # mixed axis sets
    ("x^3 + 2*x + 5", "x,y,z"),                       # y and z occur in no term
    ("x*y*z + x^2*y + x", "x,y,z"),                   # every term vanishes at x = 0
    ("omega*x^3 - y^2 + (1 + omega)*z^6", "x,y,z"),   # omega coefficients
    ("0", "x,y"),
    ("x^2 + 3*y^3 + z*w + 2*w^2 - 6", "x,y,z,w"),   # three variable-disjoint parts
    ("x*y + y*z^2 + z*w^3 + 5", "x,y,z,w"),         # one part spans all
    ("y^2 + z^3*y + z + 1", "x,y,z,w"),             # x and w in no term
    ("7", "x,y,z"),                                 # constant only
    # groups on disjoint rest axes, their coefficients depending on the prefix
    ("a*b^2 + 2*a*c^2 + 3*a*d^2 + b^3 + c^3 + d^3", "a,b,c,d"),
    # exponents above 64, on prefix, sliced and tail axes alike
    ("x^1000*y + 3*x^65*z^127 + y^200*z^129 + 2*z^1024 + y^64", "x,y,z"),
]


def _rest_axes(rng, p, m, shrink):
    if not shrink:
        return [np.arange(p, dtype=np.int64)] * m
    # a random nonempty subset per axis, sometimes a single residue
    return [np.array(sorted(rng.sample(range(p), rng.choice((1, 2, p // 2)))), dtype=np.int64)
            for _ in range(m)]


def _eval_block(terms, p, prefix, rest_axes):
    """The block kernel on one block, through a plan whose tail is rest_axes[1:],
    reduced mod p after checking that the unreduced block lies in [0, plan.bound)."""
    axes = [np.arange(p, dtype=np.int64)] * len(prefix) + list(rest_axes)
    plan = gridcount._BlockPlan(terms, p, axes, len(prefix))
    got = gridcount._eval_block(plan, prefix, rest_axes)
    assert got.dtype == np.int64
    assert ((0 <= got) & (got < plan.bound)).all()
    return got % p


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("text,names", EVAL_BLOCK_CASES)
def test_eval_block_matches_point_evaluator(text, names, p):
    field = make_field(p)
    f = _poly(text, names)
    value = _point_evaluator(f, field)
    terms = gridcount.reduced_terms(f, field)
    rng = random.Random(f"{text} {p}")
    n = f.nvars
    for k in range(n):
        # the zero prefix makes every term in a prefix variable vanish
        prefixes = [(0,) * k] + [tuple(rng.randrange(p) for _ in range(k)) for _ in range(2)]
        for prefix, shrink in product(prefixes, (False, True)):
            rest_axes = _rest_axes(rng, p, n - k, shrink)
            got = _eval_block(terms, p, prefix, rest_axes)
            expected = [value(prefix + rest) for rest in product(*(a.tolist() for a in rest_axes))]
            assert got.dtype == np.int64
            assert got.shape == tuple(len(a) for a in rest_axes)
            assert got.ravel().tolist() == expected


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("text,names", EVAL_BLOCK_CASES)
def test_one_plan_evaluates_every_slice(text, names, p):
    # one plan per prefix length serves every prefix and every slice of the
    # first rest axis; its shared array comes out of every block unchanged
    field = make_field(p)
    f = _poly(text, names)
    value = _point_evaluator(f, field)
    terms = gridcount.reduced_terms(f, field)
    axis = np.arange(p, dtype=np.int64)
    rng = random.Random(f"slices {text} {p}")
    for k in range(f.nvars):
        plan = gridcount._BlockPlan(terms, p, [axis] * f.nvars, k)
        for prefix in [(0,) * k] + [tuple(rng.randrange(p) for _ in range(k)) for _ in range(2)]:
            for start, stop in ((0, p), (0, 1), (2, 5), (p - 1, p)):
                rest_axes = (axis[start:stop],) + (axis,) * (f.nvars - k - 1)
                got = gridcount._eval_block(plan, prefix, rest_axes)
                assert ((0 <= got) & (got < plan.bound)).all()
                got %= p
                assert got.ravel().tolist() == \
                    [value(prefix + rest) for rest in product(*(a.tolist() for a in rest_axes))]


def test_plan_sums_what_no_block_changes_once():
    # a naive block at p = 23 fixes x and takes 5 values of y; the sextic in
    # (z0, z1, z2) involves neither, so the plan sums it once into one
    # read-only array, and only y^2 is evaluated per block
    p = 23
    terms = gridcount.reduced_terms(CURVE, make_field(p))
    axes = [np.arange(p, dtype=np.int64)] * 5
    assert gridcount._split(axes) == (1, 5)
    plan = gridcount._BlockPlan(terms, p, axes, 1)
    assert plan.shared.shape == (1, p, p, p) and not plan.shared.flags.writeable
    assert len(plan.varying) == 1
    # the shared array spans at most the tail behind the sliced axis, which
    # _split bounds, whatever prefix the blocks fix
    for p in (13, 23, 257):
        terms = gridcount.reduced_terms(CURVE, make_field(p))
        axes = [np.arange(p, dtype=np.int64)] * 5
        for k in range(gridcount._split(axes)[0], 5):
            plan = gridcount._BlockPlan(terms, p, axes, k)
            assert plan.shared is None or plan.shared.size <= gridcount.CHUNK_CAP, (p, k)


def test_sum_into_adds_into_an_addend_that_spans_the_shape():
    # no array is allocated when the largest addend already has the shape
    big = np.arange(12, dtype=np.int64).reshape(3, 4)
    row, col = np.ones((1, 4), dtype=np.int64), np.full((3, 1), 2, dtype=np.int64)
    got = gridcount._sum_into([row, big, col], (3, 4), constant=5)
    assert got is big
    assert got.tolist() == (np.arange(12).reshape(3, 4) + 8).tolist()
    # otherwise one array of the shape holds constant plus the broadcast sum
    row, col = np.ones((1, 4), dtype=np.int64), np.full((3, 1), 2, dtype=np.int64)
    got = gridcount._sum_into([row, col], (2, 3, 4), constant=1)
    assert got.shape == (2, 3, 4) and (got == 4).all()
    assert gridcount._sum_into([], (2,), constant=3).tolist() == [3, 3]
    # read-only addends (a plan's shared array) are never written, even when
    # they span the shape
    shared = np.arange(12, dtype=np.int64).reshape(3, 4)
    shared.flags.writeable = False
    for arrs in ([shared], [shared, np.ones((1, 4), dtype=np.int64)]):
        got = gridcount._sum_into(arrs, (3, 4), constant=5)
        assert got is not shared and got.tolist() == (shared + 4 + len(arrs)).tolist()
    assert shared.tolist() == np.arange(12).reshape(3, 4).tolist()


def test_eval_block_adds_a_y_slice_and_the_shared_array(monkeypatch):
    # a naive block of the threefold fixes x and slices y, so the block is
    # built from a length-p array for y^2 and the plan's p^3 array for the
    # sextic in (z0, z1, z2), summed once by the plan and shared by every
    # block
    calls = []
    original = gridcount._sum_into

    def recording_sum_into(arrs, shape, constant=0):
        calls.append((sorted(a.size for a in arrs), shape))
        return original(arrs, shape, constant)

    monkeypatch.setattr(gridcount, "_sum_into", recording_sum_into)
    p = 7
    field = make_field(p)
    terms = gridcount.reduced_terms(CURVE, field)
    got = _eval_block(terms, p, (3,), [np.arange(p, dtype=np.int64)] * 4)
    assert calls[-1] == ([p, p**3], (p,) * 4)
    value = _point_evaluator(CURVE, field)
    assert got.ravel().tolist() == [value((3,) + rest) for rest in product(range(p), repeat=4)]


def test_eval_block_of_a_zero_variable_block():
    # a full prefix leaves a 0-d block holding the polynomial's value
    field = make_field(13)
    f = _poly("x^2*y + 3*y^3 + 4", "x,y")
    terms = gridcount.reduced_terms(f, field)
    got = _eval_block(terms, 13, (5, 7), ())
    assert got.shape == () and int(got) == _point_evaluator(f, field)((5, 7))


@pytest.mark.parametrize("p", [7, 13])
def test_values_at_matches_point_evaluator(p):
    # the block-kernel cases (omega, zero and constant among them) and one with
    # integer coefficients far outside [0, p), one of them 0 mod 7 and 13;
    # coordinates run over [-2p, 3p), so most rows need reducing first
    field = make_field(p)
    polys = [_poly(text, names) for text, names in EVAL_BLOCK_CASES]
    polys.append(WPolynomial(("x", "y", "z"), (1, 1, 1), {
        (3, 0, 0): -22, (0, 2, 0): 10**20 + 3, (0, 0, 1): 91 * 10**9}))
    rng = random.Random(f"values_at {p}")
    for f in polys:
        points = np.array([[rng.randrange(-2 * p, 3 * p) for _ in range(f.nvars)]
                           for _ in range(40)], dtype=np.int64)
        value = _point_evaluator(f, field)
        assert gridcount.values_at(f, field, points).tolist() == \
            [value(pt) for pt in points.tolist()]
        assert gridcount.values_at(f, field, points[:0]).shape == (0,)


def test_values_at_of_zero_variable_polynomials():
    field = make_field(13)
    for f in (WPolynomial.zero((), ()), WPolynomial.constant((), (), 17),
              parse_polynomial("omega", (), ()), WPolynomial.constant((), (), -10**30 - 1)):
        assert gridcount.values_at(f, field, np.empty((3, 0), dtype=np.int64)).tolist() == \
            [_point_evaluator(f, field)(())] * 3
    with pytest.raises(TypeError, match="exact"):
        WPolynomial.constant((), (), Fraction(1, 4))
    with pytest.raises(ValueError, match="coordinates"):
        gridcount.values_at(_poly("x + y", "x,y"), field, [(1, 2, 3)])


# ---- blocks -------------------------------------------------------------------

TILING_LENGTHS = [(3, 4, 5), (5, 7), (7, 5, 3, 2), (1, 1, 7), (2, 1, 3, 1), (9,),
                  (0, 3), (3, 0, 2), (4, 3, 0), ()]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("cap", [1, 7, 12, 49, 1 << 16])
@pytest.mark.parametrize("lengths", TILING_LENGTHS)
def test_blocks_tile_the_grid_once_in_order(monkeypatch, lengths, cap, threads):
    # axes of distinct values, lengths 0 and 1 among them; caps that cut an
    # axis into slices that do not divide it evenly
    monkeypatch.setattr(gridcount, "CHUNK_CAP", cap)
    axes = [np.arange(10 * i, 10 * i + n, dtype=np.int64) for i, n in enumerate(lengths)]

    def worker(prefix, rest_axes):
        assert len(prefix) + len(rest_axes) == len(axes)
        return [prefix + rest for rest in product(*(a.tolist() for a in rest_axes))]

    blocks = list(gridcount._map_blocks(worker, axes, threads))
    assert all(len(b) <= cap for b in blocks)
    assert [pt for b in blocks for pt in b] == list(product(*(a.tolist() for a in axes)))
    if prod(lengths):
        # no empty block, and every block but the last slice of each prefix
        # holds more than cap / 2 elements
        assert all(blocks) and len(blocks) <= 4 * -(-prod(lengths) // cap)


@pytest.mark.parametrize("cap", [1, 7, 49, 1 << 16, 1 << 20])
def test_results_do_not_depend_on_the_block_cap(monkeypatch, cap):
    field5, field7 = make_field(5), make_field(7)
    partials = [CURVE.partial_derivative(v) for v in CURVE.variables]
    hists = [_value_histogram_python(_poly(text, names), field7)
             for text, names in HISTOGRAM_CASES]
    zeros = _common_zeros_python(partials, field7)
    projective = {5: 5**3 + 5**2 + 5 + 1, 7: 610}
    monkeypatch.setattr(gridcount, "CHUNK_CAP", cap)
    for threads in (1, 3):
        assert [gridcount.value_histogram(_poly(text, names), field7, threads=threads)
                for text, names in HISTOGRAM_CASES] == hists
        blocks = _zero_blocks(partials, field7, threads=threads)
        assert all(len(b) <= cap for b in blocks)
        assert [tuple(row) for b in blocks for row in b.tolist()] == zeros
        joined = gridcount.common_zeros(partials, field7, threads=threads)
        assert [tuple(row) for row in joined.tolist()] == zeros
        reps = gridcount.common_zeros(partials, field7, threads=threads, weights=CURVE.weights)
        assert [tuple(row) for row in reps.tolist()] == \
            sorted({canonical_representative(pt, CURVE.weights, 7) for pt in zeros if any(pt)})
    for field in (field5, field7):
        for method in ("naive", "burnside"):
            report = count_projective(field, CURVE, method=method)
            assert report.projective_count == projective[field.p]


def test_threads_share_one_plan(monkeypatch):
    # more threads than cores (the pool is told there are 4), switching
    # often, all reading one plan and its shared array per call; a shared
    # array written by one block would raise (it is read-only) or change the
    # others' results
    expected = (gridcount.value_histogram(CURVE, make_field(13)),
                gridcount.common_zeros([CURVE], make_field(7)))
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert gridcount.value_histogram(CURVE, make_field(13), threads=4) == expected[0]
            assert np.array_equal(gridcount.common_zeros([CURVE], make_field(7), threads=4),
                                  expected[1])
    finally:
        sys.setswitchinterval(interval)


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while run() runs; numpy reports its
    array buffers there."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_peak_below(runs: dict, blocks: int):
    block = gridcount.CHUNK_CAP * 8
    for what, run in runs.items():
        peak = _traced_peak(run)
        assert peak < blocks * block, \
            f"{what}: peak {peak} bytes, {peak / block:.2f} blocks (bound {blocks})"


def test_memory_stays_within_a_few_blocks():
    # the peak heap of a count or scan is at most two blocks of CHUNK_CAP
    # int64s with the O(p) tables, not a power of p: a walk drops its block
    # once the block's zeros are read
    fields = {p: make_field(p) for p in (13, 19, 23, 31, 61, 307)}
    runs = {
        "naive p = 13": lambda: count_projective(fields[13], CURVE, method="naive"),
        "naive p = 19": lambda: count_projective(fields[19], CURVE, method="naive"),
        "naive p = 23": lambda: count_projective(fields[23], CURVE, method="naive"),
        "naive p = 31": lambda: count_projective(fields[31], CURVE, method="naive"),
        "chart walk p = 13":
            lambda: gridcount.zero_count([CURVE], fields[13], weights=CURVE.weights),
        "weierstrass-fast p = 307": lambda: count_projective(fields[307], CURVE),
        "singular scan p = 61": lambda: singular_points(fields[61], CURVE),
    }
    _assert_peak_below(runs, 2)


def test_threaded_memory_stays_within_two_blocks_per_worker():
    # each worker thread holds its own block, so the bound scales with the
    # workers the pool starts, min(threads, cores); the pool's modules, which
    # the first threaded walk imports, are imported before tracing
    import concurrent.futures  # noqa: F401
    fields = {p: make_field(p) for p in (13, 31)}
    runs = {f"naive p = {p}, 2 threads":
            lambda p=p: count_projective(fields[p], CURVE, method="naive", threads=2)
            for p in fields}
    _assert_peak_below(runs, 2 * min(2, os.cpu_count() or 1))


def test_memory_does_not_grow_with_the_exponents():
    # powers are computed where they are used: a degree-1000 scan or count
    # holds the O(p) axes and a few blocks, no (1001, p) table of powers
    fields = {p: make_field(p) for p in (10007, 30011)}
    fermat = _poly("x^1000 + y^1000 + z^1000", "x,y,z")
    binomial = _poly("x^1000 - y^1000", "x,y")
    runs = {
        "x^1000 scan p = 30011":
            lambda: singular_points(fields[30011], fermat),
        "x^1000 - y^1000 burnside p = 10007":
            lambda: count_projective(fields[10007], binomial, method="burnside"),
    }
    _assert_peak_below(runs, 4)


def test_a_scan_over_budget_evaluates_only_the_one_variable_partials():
    # at p = 1000003 the charts of the singular scan exceed the default
    # budget; the refusal costs the presolve of dF/dx = 3x^2 and dF/dy = -2y,
    # each evaluated on its own axis (the untouched axes one shared arange),
    # and nothing for the other partials
    field = make_field(1000003)
    partials = [CURVE.partial_derivative(v) for v in CURVE.variables]
    axes, rest = gridcount._presolve(partials, field)
    assert [len(a) for a in axes[:2]] == [1, 1] and axes[2] is axes[3] is axes[4]
    assert not axes[2].flags.writeable and len(rest) == 3

    def run():
        with pytest.raises(BudgetExceededError):
            singular_points(field, CURVE)

    assert _traced_peak(run) < 64 * 2**20


def test_a_refused_scan_evaluates_one_term_partials_at_one_residue():
    # 3x^2 and -2y are single terms with a nonzero coefficient, whose one
    # root is 0, so presolve evaluates each at its axis's first residue
    # only: the refusal holds little more than the shared arange (8 MB at
    # p = 1000003)
    field = make_field(1000003)

    def run():
        with pytest.raises(BudgetExceededError):
            singular_points(field, CURVE)

    assert _traced_peak(run) < 16 * 2**20


@pytest.mark.parametrize("texts", [("x^2", "x - 1"), ("x - 1", "x^2"), ("3*x^3", "x^2 - x"),
                                   ("x^2 - x", "3*x^3"), ("5*x^4",)])
def test_presolve_cuts_a_one_term_constraint_to_zero(texts):
    # a single term c*x^e has the one root x = 0, also when an earlier
    # constraint has already cut the axis (to roots without 0, or with it)
    field = make_field(7)
    polys = [_poly(t, "x,y") for t in texts]
    axes, rest = gridcount._presolve(polys, field)
    roots = [x for x in range(7) if all(_point_evaluator(f, field)((x, 0)) == 0 for f in polys)]
    assert axes[0].tolist() == roots and len(axes[1]) == 7 and rest == []


def test_thread_pool_is_capped_at_the_cores(monkeypatch):
    # --threads far above the cores starts no more workers than there are
    # cores, and keeps at most twice that many blocks in flight; the fake
    # pool runs each task inline, so no thread is started here
    import concurrent.futures

    seen = {"workers": [], "in_flight": 0, "most": 0}

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            seen["in_flight"] -= 1
            return self.value

    class InlinePool:
        def __init__(self, max_workers):
            seen["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            seen["in_flight"] += 1
            seen["most"] = max(seen["most"], seen["in_flight"])
            return Done(fn(*args))

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 7)
    axes = [np.arange(61, dtype=np.int64)] * 2
    blocks = list(gridcount._map_blocks(lambda prefix, rest: (prefix, rest[0].tolist()),
                                        axes, threads=100000))
    assert len(blocks) == 61 * 9
    assert [(x, y) for (x,), ys in blocks for y in ys] == list(product(range(61), repeat=2))
    assert seen["workers"] == [2] and seen["most"] == 4 and seen["in_flight"] == 0
    # an unknown core count leaves one worker, still in a pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    seen["most"] = 0
    assert len(list(gridcount._map_blocks(lambda *block: None, axes, threads=3))) == 61 * 9
    assert seen["workers"] == [2, 1] and seen["most"] == 2


# ---- streamed zeros ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 13, 31]), st.data())
def test_walk_matches_point_evaluator(p, data):
    # the walk tests the unreduced block through the table of multiples of
    # p: 1-12 monomials put the plan's bound on both sides of the table's 8p
    n = 3 if p < 31 else 2  # the oracle visits every point
    names, weights = ("x", "y", "z")[:n], (1,) * n
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    coefficient = st.integers(1, p - 1)
    first = data.draw(st.dictionaries(monomial, coefficient, min_size=1, max_size=12))
    second = data.draw(st.dictionaries(monomial, coefficient, max_size=3))
    field = make_field(p)
    for polys in ([first], [first, second]):
        polys = [WPolynomial(names, weights, terms) for terms in polys]
        expected = _common_zeros_python(polys, field)
        assert list(map(tuple, np.concatenate(_zero_blocks(polys, field)).tolist())) == expected
        assert list(map(tuple, gridcount.common_zeros(polys, field).tolist())) == expected


@pytest.mark.parametrize("monomials", [1, 7, 8, 9, 12])
def test_zero_table_stays_within_8p(monkeypatch, monomials):
    # one rest monomial per term: the bound is monomials * p, and the table
    # stops at 8p, so a plan of 9 or more monomials reduces its blocks first
    sizes = []
    original = gridcount._multiples

    def recording_multiples(p, bound):
        table = original(p, bound)
        sizes.append((bound, len(table)))
        return table

    monkeypatch.setattr(gridcount, "_multiples", recording_multiples)
    p = 13
    field = make_field(p)
    exps = [(i + 1, j, 1) for i in range(4) for j in range(3)][:monomials]
    f = WPolynomial(("x", "y", "z"), (1, 1, 1), {e: 1 + k for k, e in enumerate(exps)})
    got = gridcount.common_zeros([f], field)
    assert list(map(tuple, got.tolist())) == _common_zeros_python([f], field)
    assert sizes == [(monomials * p, min(monomials, 8) * p)]
    # the naive threefold's cone blocks fix x: y^2 and the six sextic
    # monomials add to the folded x^3, eight rest monomials, so its table
    # spans the bound; its chart walk then plans each chart, every plan
    # again with eight rest monomials
    sizes.clear()
    count_projective(make_field(23), CURVE, method="naive")
    charts = list(gridcount.chart_axes([np.arange(23, dtype=np.int64)] * 5, CURVE.weights,
                                       make_field(23)))
    assert len(charts) == 5 and sizes == [(8 * 23, 8 * 23)] * (1 + len(charts))


def test_a_refused_scan_builds_no_zero_table(monkeypatch):
    def refuse(p, bound):
        raise AssertionError("zero table built before the budget check")

    monkeypatch.setattr(gridcount, "_multiples", refuse)
    with pytest.raises(BudgetExceededError):
        singular_points(make_field(7333), CURVE, budget=1000)

@pytest.mark.parametrize("threads", [1, 3])
def test_zero_blocks_stream_the_common_zeros(monkeypatch, threads):
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    field = make_field(7)
    blocks = _zero_blocks([CURVE], field, threads=threads)
    assert len(blocks) == 7**3
    assert all(b.dtype == np.int64 and b.shape[1] == 5 and len(b) <= 49 for b in blocks)
    joined = np.concatenate(blocks)
    assert np.array_equal(joined, gridcount.common_zeros([CURVE], field))
    keys = joined @ np.array([7**4, 7**3, 7**2, 7, 1])
    assert len(joined) == 3661 and (np.diff(keys) > 0).all()  # lexicographic, no repeats


ZERO_COUNT_CASES = [
    (["x^2*y + y^3*z - 2*z^2 + x*z + 1"], "x,y,z"),
    (["x^2 - y*z", "x*y + z^3 - 1"], "x,y,z"),
    (["x*y + z^2", "y^2 - x*z", "x^3 + y^3 + z^3"], "x,y,z"),
    (["x^2 - 2", "x*y - z"], "x,y,z"),   # one constraint left after the presolve
    (["0"], "x,y,z"),                     # no constraint: the whole grid
    (["3", "x*y"], "x,y,z"),              # an empty grid counts 0
]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("texts,names", ZERO_COUNT_CASES)
def test_zero_count_matches_point_evaluator(monkeypatch, texts, names, threads):
    # 1, 2 and 3 constraints over blocks of 49 points: the one-constraint
    # count reads the gather, the others count the survivors
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    field = make_field(7)
    polys = [_poly(t, names) for t in texts]
    assert gridcount.zero_count(polys, field, threads=threads) == \
        len(_common_zeros_python(polys, field))


@pytest.mark.parametrize("threads", [1, 3])
def test_zero_count_with_weights_counts_the_orbit_minima(monkeypatch, threads):
    # with the weights the count tests every block's zeros for orbit minima,
    # even with one constraint left: the threefold at p = 7 has 610 projective
    # points, where counting its 1253 zeros on the charts would overcount
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    field = make_field(7)
    partials = [CURVE.partial_derivative(v) for v in CURVE.variables]
    assert gridcount.zero_count([CURVE], field, threads=threads) == 3661
    assert gridcount.zero_count([CURVE], field, threads=threads, weights=CURVE.weights) == 610
    assert gridcount.zero_count(partials, field, threads=threads, weights=CURVE.weights) == 9
    cases = [([CURVE], CURVE.weights), (partials, CURVE.weights)]
    rng = random.Random("zero count (2, 4, 6)")
    for _ in range(4):
        f, g = (random_homogeneous(rng, 3, (2, 4, 6), degree) for degree in (12, 24))
        cases += [([f], f.weights), ([f, g], f.weights)]
    stabilized = 0
    for polys, weights in cases:
        reps = gridcount.common_zeros(polys, field, weights=weights)
        assert gridcount.zero_count(polys, field, threads=threads, weights=weights) == len(reps)
        stabilized += sum(support_gcd(weights, pt) > 1 for pt in reps.tolist())
    assert stabilized  # strata with support weight gcd d > 1 occurred


@pytest.mark.parametrize("threads", [1, 3])
def test_zero_blocks_with_weights_join_to_common_zeros(monkeypatch, threads):
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    field = make_field(7)
    for polys in ([CURVE], [CURVE.partial_derivative(v) for v in CURVE.variables]):
        blocks = _zero_blocks(polys, field, threads=threads, weights=CURVE.weights)
        assert max(map(len, blocks)) <= 49
        assert np.array_equal(np.concatenate(blocks),
                              gridcount.common_zeros(polys, field, weights=CURVE.weights))
    assert len(np.concatenate(blocks)) == 9  # the nine singular points at p = 7


def test_zero_blocks_of_an_empty_grid():
    # a nonzero constant has no zeros: one empty block, and common_zeros keeps its shape
    f = _poly("3", "x,y")
    blocks = _zero_blocks([f], make_field(7))
    assert [b.shape for b in blocks] == [(0, 2)]
    assert gridcount.common_zeros([f], make_field(7)).shape == (0, 2)


@pytest.mark.parametrize("threads", [1, 3])
def test_naive_count_holds_one_block_of_rows(monkeypatch, threads):
    # the cone walk counts its blocks without rows and never tests orbits;
    # the chart walk hands is_orbit_min each block's zeros as it arrives, so
    # no call sees more rows than one block holds, and every zero on the
    # charts is seen once (sorted: with threads, calls finish in any order)
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    field = make_field(7)
    reps = [power_coset_representatives(7, w) for w in CURVE.weights]

    def on_a_chart(pt):  # its leading coordinate is the least of its coset
        lead = next((i for i, x in enumerate(pt) if x), None)
        return lead is not None and pt[lead] in reps[lead]

    on_charts = [pt for pt in gridcount.common_zeros([CURVE], field).tolist() if on_a_chart(pt)]
    held = []
    original = gridcount.is_orbit_min

    def recording_is_orbit_min(points, weights, p):
        held.append(points.copy())
        return original(points, weights, p)

    monkeypatch.setattr(gridcount, "is_orbit_min", recording_is_orbit_min)
    assert gridcount.zero_count([CURVE], field, threads=threads) == 3661 and held == []
    report = count_projective(field, CURVE, method="naive", threads=threads)
    assert (report.cone_count, report.projective_count) == (3661, 610)
    assert max(map(len, held)) <= 49
    assert sorted(np.concatenate(held).tolist()) == on_charts and len(on_charts) < 3661 - 1


def test_naive_count_never_builds_orbit_keys(monkeypatch):
    def refusing_orbit_min_keys(points, weights, p):
        raise AssertionError("the naive count built orbit keys")

    monkeypatch.setattr(gridcount, "orbit_min_keys", refusing_orbit_min_keys)
    for p, expected in ((7, 610), (13, 3238)):
        report = count_projective(make_field(p), CURVE, method="naive")
        assert report.projective_count == expected


# ---- orbit keys ---------------------------------------------------------------

@pytest.mark.parametrize("weights", [(2, 3, 1, 1, 1), (2, 4, 6), (3, 1, 2, 6),
                                     (4, 6, 2, 1), (6, 6, 1)])
@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 37])
def test_orbit_keys_match_canonical_representative(weights, p):
    rng = random.Random(f"{weights} {p}")
    points = _random_points(rng, len(weights), p, 120)
    keys = gridcount.orbit_min_keys(points, weights, p)
    assert keys.dtype == np.int64
    assert keys.tolist() == _oracle_keys(points.tolist(), weights, p)


def test_orbit_keys_of_whole_small_grid():
    # every point of F_7^4, the zero point included (key 0)
    weights, p = (2, 3, 2, 3), 7
    points = np.array(np.meshgrid(*[np.arange(p)] * 4, indexing="ij")).reshape(4, -1).T
    keys = gridcount.orbit_min_keys(points, weights, p)
    assert keys.tolist() == _oracle_keys(points.tolist(), weights, p)


def test_orbit_keys_of_no_points():
    keys = gridcount.orbit_min_keys(np.empty((0, 3), dtype=np.int64), (1, 2, 3), 7)
    assert keys.shape == (0,) and keys.dtype == np.int64


def test_orbit_keys_beyond_int64():
    # 7333^5 >= 2^62: the keys are Python integers, still lex-min packings
    weights, p = (2, 3, 1, 1, 1), 7333
    points = _random_points(random.Random(5), 5, p, 25)
    keys = gridcount.orbit_min_keys(points, weights, p)
    assert keys.dtype == object
    assert keys.tolist() == _oracle_keys(points.tolist(), weights, p)


def test_orbit_keys_take_one_orbit_at_a_time():
    # O(p) heap per point: all 25 orbits at once would hold 25 * 7332 * 5
    # int64 logs, about 7 MB; the caller's array is left as it was
    weights, p = (2, 3, 1, 1, 1), 7333
    points = _random_points(random.Random(5), 5, p, 25)
    before = points.copy()
    peak = _traced_peak(lambda: gridcount.orbit_min_keys(points, weights, p))
    assert peak < 4 * gridcount.CHUNK_CAP * 8
    assert (points == before).all()


# ---- orbit minimum test -------------------------------------------------------

ORBIT_WEIGHTS = [(2, 3, 1, 1, 1), (2, 4, 6), (3, 1, 2, 6), (4, 6, 2, 1), (6, 6, 1)]
ORBIT_PRIMES = [5, 7, 11, 13, 31, 37]


def _oracle_is_min(points, weights, p):
    return [any(pt) and canonical_representative(pt, weights, p) == tuple(pt)
            for pt in points]


def _packed(points, p):
    n = points.shape[1]
    return points @ np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)


@pytest.mark.parametrize("weights", ORBIT_WEIGHTS)
@pytest.mark.parametrize("p", ORBIT_PRIMES)
def test_is_orbit_min_matches_canonical_representative(weights, p):
    rng = random.Random(f"min {weights} {p}")
    points = _random_points(rng, len(weights), p, 150)
    # random points are rarely minima at larger p: add each one's minimum
    minima = [canonical_representative(pt, weights, p) for pt in points.tolist()]
    points = np.concatenate([points, np.array(minima, dtype=np.int64)])
    got = gridcount.is_orbit_min(points, weights, p)
    assert got.dtype == bool and got.shape == (300,)
    assert got.tolist() == _oracle_is_min(points.tolist(), weights, p)
    # the same test read off the orbit keys: a nonzero point equal to its key
    keys = gridcount.orbit_min_keys(points, weights, p)
    assert got.tolist() == ((keys == _packed(points, p)) & points.any(axis=1)).tolist()


@pytest.mark.parametrize("weights", ORBIT_WEIGHTS)
@pytest.mark.parametrize("p", [5, 7])
def test_is_orbit_min_on_whole_small_grids(weights, p):
    # every point of F_p^n, the zero point included (False); each orbit has
    # exactly one minimum, so the count is the number of projective points
    n = len(weights)
    points = np.array(np.meshgrid(*[np.arange(p)] * n, indexing="ij")).reshape(n, -1).T
    got = gridcount.is_orbit_min(points, weights, p)
    assert not got[0]  # the zero point comes first
    assert got.tolist() == _oracle_is_min(points.tolist(), weights, p)
    oracle = {canonical_representative(pt, weights, p) for pt in points[1:].tolist()}
    assert int(got.sum()) == len(oracle)


def test_is_orbit_min_of_zero_and_empty_arrays():
    weights = (2, 3, 1, 1, 1)
    assert gridcount.is_orbit_min(np.zeros((3, 5), dtype=np.int64), weights, 7).tolist() == \
        [False] * 3
    got = gridcount.is_orbit_min(np.empty((0, 5), dtype=np.int64), weights, 7)
    assert got.shape == (0,) and got.dtype == bool


def test_is_orbit_min_skips_columns_that_are_zero_throughout():
    # the tables cover only the columns that occur, so variables that are
    # zero in every row cost nothing; the two that occur sit among them, and
    # 70 columns are more than one int64 support mask holds
    for width in (42, 70):
        weights = [1] * width
        weights[5], weights[17] = 2, 3
        points = np.zeros((5, width), dtype=np.int64)
        points[:, [5, 17]] = [[1, 1], [1, 2], [3, 1], [3, 0], [0, 0]]
        expected = _oracle_is_min(points[:, [5, 17]].tolist(), (2, 3), 7)
        assert gridcount.is_orbit_min(points, tuple(weights), 7).tolist() == expected == \
            [True, True, True, False, False]  # (3, 1) is a minimum for weights (2, 3) only


# ---- value histograms ---------------------------------------------------------

def _poly(text, names):
    names = tuple(names.split(","))
    return parse_polynomial(text, names, (1,) * len(names))


HISTOGRAM_CASES = [
    ("x^2 + y^3 + z*w", "x,y,z,w"),                  # three parts
    ("x^2 + y^3 + 5", "x,y,z,w"),                    # two free variables, a constant
    ("x*y + y*z + w^2 - 3", "x,y,z,w"),              # a chain of terms is one part
    ("omega*x^3 - y^2 + (1 + omega)*z^6", "x,y,z"),  # omega coefficients
    ("x^6 + y^6 - 2*x^3*y^3", "x,y,z"),              # one part and a free variable
    ("0", "x,y,z"),                                  # the zero polynomial
    ("4", "x,y"),
]


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("text,names", HISTOGRAM_CASES)
def test_value_histogram_matches_pointwise_oracle(text, names, p):
    f = _poly(text, names)
    assert gridcount.value_histogram(f, make_field(p)) == _value_histogram_python(f, make_field(p))


@pytest.mark.parametrize("threads", [1, 3])
def test_value_histogram_with_small_chunks(monkeypatch, threads):
    # a cap of 7 splits every part's grid into blocks that fix a prefix
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 7)
    field = make_field(7)
    for text, names in HISTOGRAM_CASES:
        f = _poly(text, names)
        assert gridcount.value_histogram(f, field, threads=threads) == \
            _value_histogram_python(f, field)


def test_value_histogram_exact_beyond_int64():
    # 13^18 > 2^63.  Sum of 18 squares (Lidl-Niederreiter 6.26, n even,
    # eta((-1)^9) = 1 at p = 13): N(c) = p^17 + nu(c) p^8, nu(0) = p - 1,
    # nu(c) = -1 otherwise
    p, n = 13, 18
    names = [f"v{i}" for i in range(n)]
    f = _poly(" + ".join(f"{v}^2" for v in names), ",".join(names))
    hist = gridcount.value_histogram(f, make_field(p))
    assert hist == [p**17 + (p - 1) * p**8] + [p**17 - p**8] * (p - 1)
    assert sum(hist) == p**n > 2**63
    # the zero polynomial on 20 free variables
    zero = WPolynomial.zero(tuple(names + ["a", "b"]), (1,) * (n + 2))
    assert gridcount.value_histogram(zero, make_field(p)) == [p ** (n + 2)] + [0] * (p - 1)


def _part_sizes(poly):
    """Variable counts of f's variable-disjoint parts, by merging term supports."""
    parts = []
    for exps in poly.terms:
        support = {i for i, e in enumerate(exps) if e}
        if not support:
            continue
        touching = [s for s in parts if s & support]
        parts = [s for s in parts if not s & support] + [support.union(*touching)]
    return [len(s) for s in parts]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_cyclic_convolve_matches_the_direct_sum(dtype):
    # sparse against dense, dense against dense, and either side empty
    p = 13
    rng = random.Random("convolve")
    dense = [rng.randrange(1, 50) for _ in range(p)]
    sparse = [0] * p
    sparse[0], sparse[5], sparse[p - 1] = 3, 1, 7
    cases = [(sparse, dense), (dense, sparse), (dense, dense[::-1]), ([0] * p, dense)]
    if dtype is object:
        cases.append(([2**70] + [0] * (p - 1), [3**50] * p))  # past int64
    for a, b in cases:
        got = gridcount._cyclic_convolve(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
        assert got.dtype == dtype
        assert got.tolist() == [sum(a[s] * b[(v - s) % p] for s in range(p)) for v in range(p)]


def test_burnside_evaluates_each_part_over_its_own_variables(monkeypatch):
    # every stratum's histogram costs sum_c p^|c|, not p^|stratum|
    evaluated = []
    original = gridcount._eval_block

    def counting_eval_block(plan, prefix, rest_axes):
        evaluated.append(prod(len(a) for a in rest_axes))
        return original(plan, prefix, rest_axes)

    monkeypatch.setattr(gridcount, "_eval_block", counting_eval_block)
    p = 13
    report = count_projective(make_field(p), CURVE, method="burnside")
    assert report.projective_count == 3238
    bound = sum(p ** size
                for k in range(CURVE.nvars + 1) for keep in combinations(range(CURVE.nvars), k)
                for size in _part_sizes(CURVE.restrict(keep)))
    assert 0 < sum(evaluated) <= bound < p**5
    assert max(evaluated) <= gridcount.CHUNK_CAP
