import random
from math import gcd, prod

import numpy as np
import pytest

from ellrank import gridcount, orbits
from ellrank.counting import WeightedSpace
from ellrank.curves import defining_polynomial, local_surface_normalized, sextic_base
from ellrank.fields import make_field
from ellrank.parsing import parse_polynomial
from ellrank.singular import (ProjectivePoint, euler_check,
                              expected_singularities, singular_points)
from helpers import (_common_zeros_python, _point_evaluator, canonical_representative,
                     random_homogeneous, run_cli, strip_timing)

CURVE = defining_polynomial()
W_CURVE = WeightedSpace((2, 3, 1, 1, 1))


def test_nine_singular_points_f7():
    field = make_field(7)
    report = singular_points(field, CURVE, W_CURVE)
    assert len(report.points) == 9
    assert set(report.points) == set(expected_singularities(field))
    assert report.excluded_ambient == ()
    reps = {pt.coordinates for pt in report.points}
    # the orbits of (0:0:omega:1:0) and (0:0:0:omega^k:1) are among them
    assert canonical_representative((0, 0, 2, 1, 0), W_CURVE.weights, 7) in reps
    assert canonical_representative((0, 0, 0, 4, 1), W_CURVE.weights, 7) in reps


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_scan_matches_expected_list(p):
    field = make_field(p)
    report = singular_points(field, CURVE, W_CURVE)
    assert set(report.points) == set(expected_singularities(field))


def test_quasi_smooth_example_has_no_singularities():
    field = make_field(7)
    f = parse_polynomial("y^2 - x^3 - z^6", ("x", "y", "z"), (2, 3, 1))
    report = singular_points(field, f, WeightedSpace((2, 3, 1)))
    assert report.points == ()


def test_scan_runs_at_p5_without_expected_list():
    field = make_field(5)
    report = singular_points(field, CURVE, W_CURVE)
    with pytest.raises(ValueError, match="expected list unavailable"):
        expected_singularities(field)
    # cube map is a bijection mod 5, so z_i^3 = z_j^3 forces z_i = z_j:
    # one orbit per coordinate pair instead of three
    assert len(report.points) == 3


def test_every_reported_point_lies_on_the_hypersurface():
    for p in (7, 13):
        field = make_field(p)
        report = singular_points(field, CURVE, W_CURVE)
        value = _point_evaluator(CURVE, field)
        for pt in report.points:
            assert value(pt.coordinates) == 0


def test_scan_is_orbit_exact():
    # every plain-scaling translate of a reported point is again critical,
    # canonicalizes back to the same representative, and satisfies f = 0
    field = make_field(7)
    report = singular_points(field, CURVE, W_CURVE)
    partials = [_point_evaluator(CURVE.partial_derivative(v), field) for v in CURVE.variables]
    value = _point_evaluator(CURVE, field)
    for pt in report.points:
        for lam in range(1, 7):
            translate = tuple(pow(lam, w, 7) * v % 7
                              for w, v in zip(W_CURVE.weights, pt.coordinates))
            assert all(g(translate) == 0 for g in partials)
            assert value(translate) == 0
            assert canonical_representative(translate, W_CURVE.weights, 7) == pt.coordinates


def test_scan_when_every_partial_vanishes_mod_p():
    # the partials 7x^6 and 7y^6 vanish mod 7, so every point is critical and
    # the hypersurface x^7 + y^7 = 0, that is x = -y, is filtered explicitly
    f = parse_polynomial("x^7 + y^7", ("x", "y"), (1, 1))
    report = singular_points(make_field(7), f, WeightedSpace((1, 1)))
    assert [str(pt) for pt in report.points] == ["1:6"]


@pytest.mark.parametrize("p", [7, 13])
def test_orbit_keys_match_oracle_on_critical_points(p):
    field = make_field(p)
    partials = [CURVE.partial_derivative(v) for v in CURVE.variables]
    nonzero = [pt for pt in gridcount.common_zeros(partials, field) if any(pt)]
    assert len(nonzero) == 9 * (p - 1)
    oracle = [canonical_representative(pt, W_CURVE.weights, p) for pt in nonzero]
    keys = gridcount.orbit_min_keys(np.array(nonzero), W_CURVE.weights, p)
    # a key is its lex-smallest orbit member read as a base-p number
    assert keys.tolist() == [sum(c * p ** (4 - i) for i, c in enumerate(rep))
                             for rep in oracle]


def test_expected_singularities_beyond_int64_keys():
    # 7333^5 >= 2^62: the orbit keys become Python integers
    field = make_field(7333)
    raw = [pt for c in field.cube_roots
           for pt in ((0, 0, c, 1, 0), (0, 0, c, 0, 1), (0, 0, 0, c, 1))]
    oracle = sorted({canonical_representative(pt, W_CURVE.weights, 7333) for pt in raw})
    assert [pt.coordinates for pt in expected_singularities(field)] == oracle


def test_expected_singularities_examples():
    f7 = make_field(7)
    pts = expected_singularities(f7)
    assert len(pts) == 9
    coords = {p.coordinates for p in pts}
    assert canonical_representative((0, 0, 2, 1, 0), (2, 3, 1, 1, 1), 7) in coords
    assert canonical_representative((0, 0, 0, 4, 1), (2, 3, 1, 1, 1), 7) in coords

    f13 = make_field(13)
    pts13 = expected_singularities(f13)
    assert len(pts13) == 9
    assert set(f13.cube_roots) == {1, 3, 9}

    with pytest.raises(ValueError, match="cube root"):
        expected_singularities(make_field(5))


def test_point_string_format():
    pt = ProjectivePoint(coordinates=(0, 0, 1, 4, 0), weights=(2, 3, 1, 1, 1))
    assert str(pt) == "0:0:1:4:0"


def test_points_are_hashable_values():
    weights = (2, 3, 1, 1, 1)
    a = ProjectivePoint(coordinates=(0, 0, 1, 4, 0), weights=weights)
    b = ProjectivePoint(coordinates=(0, 0, 1, 4, 0), weights=weights)
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a}
    assert a != ProjectivePoint(coordinates=(0, 0, 1, 2, 0), weights=weights)


def test_euler_check():
    assert euler_check(CURVE, W_CURVE) is True
    f = parse_polynomial("y^2 - x^3", ("x", "y"), (2, 3))
    assert euler_check(f, WeightedSpace((2, 3))) is True
    g = parse_polynomial("y^2 - x^3", ("x", "y"), (1, 1))
    assert euler_check(g, WeightedSpace((1, 1))) is False


def test_degenerate_input_rejected():
    field = make_field(7)
    const = parse_polynomial("1", ("x", "y"), (1, 1))
    with pytest.raises(ValueError, match="degenerate"):
        singular_points(field, const, WeightedSpace((1, 1)))


def test_partial_vanishing_mod_p_imposes_no_constraint():
    # the z-partial of y^2 - x^3 - 7 z^6 is -42 z^5 = 0 mod 7, so mod 7 the
    # surface degenerates to the cusp y^2 = x^3 and is singular along the
    # whole z-axis: exactly the one projective point (0:0:1)
    field = make_field(7)
    f = parse_polynomial("y^2 - x^3 - 7*z^6", ("x", "y", "z"), (2, 3, 1))
    report = singular_points(field, f, WeightedSpace((2, 3, 1)))
    assert [pt.coordinates for pt in report.points] == [(0, 0, 1)]


def test_ambient_singular_points_are_set_aside():
    # x^3 - s1^3 on P(2,3,2,3): every partial vanishes on the (y, t1) plane,
    # whose points all sit on the ambient singular locus (weight gcd 3), so
    # the partial criterion reports none of them as hypersurface singularities
    field = make_field(7)
    f = parse_polynomial("x^3 - s1^3", ("x", "y", "s1", "t1"), (2, 3, 2, 3))
    report = singular_points(field, f, WeightedSpace((2, 3, 2, 3)))
    assert report.points == ()
    ambient = {str(p) for p in report.excluded_ambient}
    # p + 1 points of the weighted projective line with coordinates (y : t1)
    assert len(ambient) == 8
    assert "0:1:0:0" in ambient and "0:0:0:1" in ambient


# ---- the engine's one-variable pre-solve and block walk ----------------------

def _non_residue(p):
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


def _presolve_cases(p):
    xyzw = ("x", "y", "z", "w"), (1, 1, 1, 1)
    surface = local_surface_normalized()
    return {
        "mixed": ([parse_polynomial(t, *xyzw) for t in
                   ("x^3 - 1", "y^2 - x*z", "z^6 - 1", "w*x - y + 2")], True),
        "no-roots": ([parse_polynomial(t, *xyzw) for t in
                      (f"x^2 - {_non_residue(p)}", "y*z - w")], False),
        "vanishes-mod-p": ([parse_polynomial(t, *xyzw) for t in
                            (f"{p}*x^6", "y^3 - z*w^2", "z^2 - 1")], True),
        "omega": ([parse_polynomial(t, *xyzw) for t in
                   ("omega*x - 1", "y^3 - x*z^2 + omega*w^3", "w^2 - omega^2")], True),
        "local-surface": ([surface.partial_derivative(v) for v in surface.variables], True),
    }


@pytest.mark.parametrize("case", ["mixed", "no-roots", "vanishes-mod-p", "omega",
                                  "local-surface"])
@pytest.mark.parametrize("p", [7, 13])
def test_presolve_matches_full_grid_oracle(p, case):
    field = make_field(p)
    polys, has_zeros = _presolve_cases(p)[case]
    zeros = gridcount.common_zeros(polys, field)
    oracle = _common_zeros_python(polys, field)
    assert zeros.dtype == np.int64 and zeros.shape == (len(oracle), polys[0].nvars)
    assert [tuple(row) for row in zeros.tolist()] == oracle
    assert bool(oracle) is has_zeros


def _cap_cases():
    curve_partials = [CURVE.partial_derivative(v) for v in CURVE.variables]
    surface = local_surface_normalized()
    return [(make_field(7), curve_partials),
            (make_field(13), [surface.partial_derivative(v) for v in surface.variables]),
            (make_field(13), _presolve_cases(13)["mixed"][0])]


@pytest.mark.parametrize("threads", [1, 3])
def test_small_chunk_cap_changes_no_result(monkeypatch, threads):
    # at the default cap every grid here is one block; a cap of 7 makes the
    # blocks fix a prefix of two or more coordinates
    f7, f13 = make_field(7), make_field(13)
    zeros = [gridcount.common_zeros(polys, field) for field, polys in _cap_cases()]
    hists = [gridcount.value_histogram(CURVE, f7), gridcount.value_histogram(sextic_base(), f13)]
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 7)
    for (field, polys), expected in zip(_cap_cases(), zeros):
        assert np.array_equal(gridcount.common_zeros(polys, field, threads=threads), expected)
    assert gridcount.value_histogram(CURVE, f7, threads=threads) == hists[0]
    assert gridcount.value_histogram(sextic_base(), f13, threads=threads) == hists[1]


def test_scan_evaluates_at_most_p_cubed_points(monkeypatch):
    # dF/dx and dF/dy involve one variable each and force x = y = 0 before
    # anything is enumerated, so only the (s, t, u) grid is evaluated
    evaluated = []
    original = gridcount._eval_block

    def counting_eval_block(plan, prefix, rest_axes):
        evaluated.append(prod(len(a) for a in rest_axes))
        return original(plan, prefix, rest_axes)

    monkeypatch.setattr(gridcount, "_eval_block", counting_eval_block)
    field = make_field(13)
    report = singular_points(field, CURVE, W_CURVE)
    assert set(report.points) == set(expected_singularities(field))
    assert 0 < sum(evaluated) <= 13**3
    assert max(evaluated) <= gridcount.CHUNK_CAP


# ---- the streamed scan keeps one member per orbit -----------------------------

def _joined_then_keyed(polys, weights, field):
    """The scan's representatives as they were found before it streamed: every
    common zero joined into one array, then canonicalized point by point."""
    nonzero = [pt for pt in gridcount.common_zeros(polys, field).tolist() if any(pt)]
    return sorted({canonical_representative(pt, weights, field.p) for pt in nonzero})


def _partials(f):
    return [g for g in (f.partial_derivative(v) for v in f.variables) if g.terms]


FERMAT_7 = parse_polynomial("x^7 + y^7 + z^7 + w^7", ("x", "y", "z", "w"), (1, 1, 1, 1))


def _homogeneous_scan_cases():
    surface = local_surface_normalized()
    return [(make_field(p), _partials(f), f.weights)
            for p in (7, 13)
            for f in (CURVE, surface,
                      parse_polynomial("x^3 - s1^3", ("x", "y", "s1", "t1"), (2, 3, 2, 3)))
            ] + [(make_field(7), _partials(FERMAT_7), FERMAT_7.weights)]


@pytest.mark.parametrize("cap", [None, 7])
@pytest.mark.parametrize("threads", [1, 3])
def test_common_zeros_keep_one_member_per_orbit(monkeypatch, threads, cap):
    expected = [_joined_then_keyed(polys, weights, field)
                for field, polys, weights in _homogeneous_scan_cases()]
    if cap is not None:
        monkeypatch.setattr(gridcount, "CHUNK_CAP", cap)
    for (field, polys, weights), reps in zip(_homogeneous_scan_cases(), expected):
        got = gridcount.common_zeros(polys, field, threads=threads, weights=weights)
        assert got.dtype == np.int64 and got.shape == (len(reps), len(weights))
        assert [tuple(row) for row in got.tolist()] == reps


def test_scan_holds_one_block_of_rows(monkeypatch):
    # every partial 7v^6 vanishes mod 7, so the scan walks the four charts of
    # P^3(F_7) whole: 1 + 7 + 49 + 7 * 49 rows, in blocks of at most 49 rows,
    # each reduced to its orbit minima as it arrives
    field = make_field(7)
    value = _point_evaluator(FERMAT_7, field)
    on_surface = [pt for pt in gridcount.common_zeros(_partials(FERMAT_7), field).tolist()
                  if any(pt) and value(pt) == 0]
    expected = sorted({canonical_representative(pt, FERMAT_7.weights, 7) for pt in on_surface})
    monkeypatch.setattr(gridcount, "CHUNK_CAP", 49)
    held = []
    original = orbits.is_orbit_min

    def recording_is_orbit_min(points, weights, p):
        held.append(len(points))
        return original(points, weights, p)

    # common_zeros imports is_orbit_min from orbits when it is called
    monkeypatch.setattr(orbits, "is_orbit_min", recording_is_orbit_min)
    report = singular_points(field, FERMAT_7, WeightedSpace(FERMAT_7.weights))
    assert len(held) == 10 and max(held) <= 49 and sum(held) == 7**3 + 7**2 + 7 + 1
    assert [pt.coordinates for pt in report.points] == expected
    assert len(expected) == 57 and report.excluded_ambient == ()  # the plane x+y+z+w = 0


# ---- the chart walk ------------------------------------------------------------

def _chart_cases():
    """(field, polys, weights): random weighted-homogeneous systems at primes
    1 and 2 mod 3, weights from (1, 2, 3, 4, 6) so that gcd(w, p - 1) > 1 gives
    several coset representatives, half of them joined by a one-variable
    constraint (v - a)(v - b) whose presolved axis may lack 0."""
    rng = random.Random(1109)
    cases = []
    for p in (5, 7, 11, 13):
        for _ in range(8):
            n = rng.choice((2, 3, 3, 4)) if p < 13 else rng.choice((2, 3))
            weights = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(n))
            names = tuple(f"v{i}" for i in range(n))
            polys = [f for f in (random_homogeneous(rng, n, weights, rng.randint(2, 12),
                                                    max_terms=3, names=names)
                                 for _ in range(rng.randint(1, 2))) if f is not None]
            if not polys or rng.random() < 0.5:
                v, (a, b) = rng.choice(names), rng.sample(range(p), 2)
                polys.append(parse_polynomial(f"({v} - {a})*({v} - {b})", names, weights))
            cases.append((make_field(p), polys, weights))
    return cases


def _canonical_zeros(polys, weights, field):
    """The nonzero common zeros that are their own canonical representative,
    from the full grid, point by point."""
    return [pt for pt in _common_zeros_python(polys, field)
            if any(pt) and canonical_representative(pt, weights, field.p) == pt]


@pytest.mark.parametrize("cap", [None, 7])
def test_chart_walk_matches_canonical_full_grid_zeros(monkeypatch, cap):
    cases = _chart_cases()
    expected = [_canonical_zeros(polys, weights, field) for field, polys, weights in cases]
    if cap is not None:
        monkeypatch.setattr(gridcount, "CHUNK_CAP", cap)
    several_reps = lead_without_zero = 0
    for (field, polys, weights), reps in zip(cases, expected):
        got = [gridcount.common_zeros(polys, field, threads=threads, weights=weights)
               for threads in (1, 3)]
        assert np.array_equal(got[0], got[1])
        assert got[0].dtype == np.int64 and got[0].shape == (len(reps), len(weights))
        assert [tuple(row) for row in got[0].tolist()] == reps
        for pt in reps:
            i = next(j for j, v in enumerate(pt) if v)
            several_reps += pt[i] != 1 and gcd(weights[i], field.p - 1) > 1
        axes, _ = gridcount._presolve(polys, field)
        lead_without_zero += bool(reps) and any(len(a) and a[0] != 0 for a in axes)
    # the cases reach both cuts of the chart walk
    assert several_reps and lead_without_zero


def test_singular_scan_is_the_same_at_one_and_three_threads():
    # at p = 997 the chart (0 : 0 : 1 : s : t) is cut into 16 blocks, so the
    # pool's blocks must come back in order
    one = run_cli(["singular", "--prime", "997", "--threads", "1"])
    three = run_cli(["singular", "--prime", "997", "--threads", "3"])
    assert one[0] == three[0] == 0
    assert strip_timing(one[2]) == strip_timing(three[2])
    assert len(one[1]["singular"]["points"]) == 9
