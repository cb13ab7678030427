import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrank import counting, gridcount
from ellrank.counting import (CountReport, WeightedSpace, count_cone_naive,
                              count_cone_weierstrass, count_projective,
                              weierstrass_fiber_table, weierstrass_shape)
from ellrank.curves import (defining_polynomial, local_surface_normalized,
                            local_surface_split, sextic_base)
from ellrank.errors import BudgetExceededError, ConsistencyError
from ellrank.fields import make_field
from ellrank.parsing import parse_polynomial
from ellrank.wpoly import WPolynomial, support_gcd
from helpers import (_common_zeros_python, _fiber_table_python, _point_evaluator,
                     _zero_count_python, canonical_representative, local_surface_twisted,
                     random_homogeneous, random_weierstrass, rational_orbit_count,
                     run_cli)

F7 = make_field(7)
F13 = make_field(13)
CURVE = defining_polynomial()


def test_weighted_space_rejects_bad_weights():
    assert WeightedSpace([2, 3]).weights == (2, 3)
    for weights in [(), (1, 0), (2, -1)]:
        with pytest.raises(ValueError, match="weights must be positive"):
            WeightedSpace(weights)


# ---- cone counts ------------------------------------------------------------

def test_cone_naive_small_curve():
    f = parse_polynomial("y^2 - x^3", ("x", "y"), (2, 3))
    assert count_cone_naive(F7, f) == 7


def test_cone_naive_defining_polynomial():
    # 1 (origin) + 610 free orbits of size 6
    assert count_cone_naive(F7, CURVE) == 3661


def test_cone_naive_constant_one():
    one = WPolynomial.constant(("x", "y"), (1, 1), 1)
    assert count_cone_naive(F7, one) == 0


def test_cone_naive_coefficients_divisible_by_p():
    # 7x vanishes identically mod 7: every point of the grid solves it
    f = parse_polynomial("7*x", ("x",), (1,))
    assert count_cone_naive(F7, f) == 7
    assert gridcount.value_histogram(f, F7)[0] == 7


def test_cone_naive_budget():
    with pytest.raises(BudgetExceededError) as excinfo:
        count_cone_naive(F13, CURVE, budget=1000)
    assert excinfo.value.required == 13**5


def test_engine_matches_reference_evaluator():
    rng = random.Random(4242)
    for field in (F7, F13):
        for _ in range(8):
            nvars = rng.randint(1, 3)
            weights = tuple(rng.randint(1, 3) for _ in range(nvars))
            f = random_homogeneous(rng, nvars, weights, rng.randint(1, 6))
            if f is None:
                continue
            hist = gridcount.value_histogram(f, field)
            assert sum(hist) == field.p ** nvars
            assert hist[0] == _zero_count_python(f, field)


@pytest.mark.parametrize("field", [F7, F13], ids=["p7", "p13"])
def test_engine_matches_reference_on_constants(field):
    # Burnside strata restricted to an empty support, or to variables the
    # polynomial does not use, reach the engine as constants
    p = field.p
    cases = [WPolynomial.constant((), (), c) for c in (0, 1, p, 2 * p + 3)]
    for n in (1, 2, 3):
        names, weights = tuple(f"v{i}" for i in range(n)), (1,) * n
        cases += [WPolynomial.zero(names, weights), WPolynomial.constant(names, weights, p)]
    for f in cases:
        hist = gridcount.value_histogram(f, field)
        assert sum(hist) == p ** f.nvars
        assert hist[0] == _zero_count_python(f, field)


def test_naive_count_when_polynomial_vanishes_mod_p():
    # every point of F_7^2 solves 7x^2 + 7y^2 = 0 and 0 = 0: P^1(F_7) has 8 points
    for f in (parse_polynomial("7*x^2 + 7*y^2", ("x", "y"), (1, 1)),
              WPolynomial.zero(("x", "y"), (1, 1))):
        report = count_projective(F7, f, method="naive")
        assert (report.cone_count, report.projective_count) == (49, 8)


@pytest.mark.parametrize("walk", ["cone", "charts"])
def test_naive_count_checks_the_cone_against_the_projective_points(monkeypatch, walk):
    # the cone and the projective points come from separate walks of
    # zero_count, the charts' asked with the weights: one point lost by
    # either breaks cone - [F(0) = 0] = (p - 1) * projective, and the count
    # aborts (exit 5) instead of reporting it
    original = gridcount.zero_count

    def losing(*args, weights=None, **kwargs):
        lost = (weights is None) == (walk == "cone")
        return original(*args, weights=weights, **kwargs) - lost

    monkeypatch.setattr(gridcount, "zero_count", losing)
    with pytest.raises(ConsistencyError, match="naive count"):
        count_projective(F7, CURVE, method="naive")
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "naive"])
    assert code == 5 and doc["status"] == "internal-error" and "naive count" in doc["message"]


@pytest.mark.parametrize("method,target,extra", [
    ("weierstrass-fast", "count_cone_weierstrass", lambda cone: cone + 1),
    ("burnside", "_burnside_counts", lambda counts: (counts[0], counts[1] + 1)),
])
def test_every_method_meets_the_projective_identity(monkeypatch, method, target, extra):
    # count_projective checks cone - [F(0) = 0] = (p - 1) * projective for
    # every method: a cone or projective count off by one exits 5 naming it
    original = getattr(counting, target)
    monkeypatch.setattr(counting, target, lambda *args, **kwargs: extra(original(*args, **kwargs)))
    with pytest.raises(ConsistencyError, match=f"^{method} count: "):
        count_projective(F7, CURVE, method=method)
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", method])
    assert code == 5 and doc["status"] == "internal-error"
    assert doc["message"].startswith(f"{method} count: ")


def test_naive_count_builds_no_value_histogram(monkeypatch):
    # the naive method is the brute-force cross-check: it walks the grid and
    # never reads a value histogram, which burnside and weierstrass-fast use
    def refuse(*args, **kwargs):
        raise AssertionError("naive count read a value histogram")

    monkeypatch.setattr(gridcount, "value_histograms", refuse)
    report = count_projective(F7, CURVE, method="naive")
    assert (report.cone_count, report.projective_count) == (3661, 610)
    assert count_cone_naive(F13, CURVE) == 38857


def test_engine_pointwise_agreement():
    # every engine value equals the per-point exact evaluator
    rng = random.Random(999)
    f = random_homogeneous(rng, 2, (1, 2), 4)
    points = gridcount.common_zeros([f], F13)
    value = _point_evaluator(f, F13)
    for pt in points.tolist():
        assert value(pt) == 0
    assert len(points) == _zero_count_python(f, F13)


def test_threads_do_not_change_counts():
    for threads in (1, 2, 8):
        assert count_cone_naive(F13, CURVE, threads=threads) == 38857
        assert gridcount.value_histogram(sextic_base(), F13, threads=threads) == \
            gridcount.value_histogram(sextic_base(), F13, threads=1)


# ---- Weierstrass fiber method ----------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("base,names", [("z^6", ("z",)),
                                         ("z0^6 - 2*z0^3*z1^3 + 3*z1^6", ("z0", "z1"))])
def test_fiber_table_budget_charges_the_points_it_sums(p, base, names):
    # with one or two base variables the charts charge less than the fiber
    # table, which sums (gcd(6, p - 1) + 1) p points, at most p^2
    f_base = parse_polynomial(base, names, (1,) * len(names))
    field = make_field(p)
    fiber = (gcd(6, p - 1) + 1) * p
    cone = count_cone_weierstrass(field, f_base)
    assert count_cone_weierstrass(field, f_base, budget=fiber) == cone
    with pytest.raises(BudgetExceededError) as refusal:
        count_cone_weierstrass(field, f_base, budget=fiber - 1)
    assert refusal.value.required == fiber


def test_fiber_table_values():
    table = weierstrass_fiber_table(F7)
    assert table[0] == 7          # count of y^2 = x^3 over F_7
    assert table[1] == 11         # affine solutions of y^2 = x^3 + 1 over F_7
    # brute force the whole table
    for c in range(7):
        expected = sum(1 for x in range(7) for y in range(7)
                       if (y * y - x**3 - c) % 7 == 0)
        assert table[c] == expected


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_fiber_table_invariants(p):
    field = make_field(p)
    table = weierstrass_fiber_table(field)
    assert sum(table) == p * p    # each (x, y) pair determines c uniquely
    assert all(0 <= t <= 2 * p for t in table)
    # T[c] = T[a^6 c] for every a != 0, the identity weierstrass_shape uses,
    # read off the per-residue sums
    oracle = _fiber_table_python(field)
    for a in range(1, p):
        assert [oracle[pow(a, 6, p) * c % p] for c in range(p)] == oracle


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 37, 1009, 1013])
def test_fiber_table_matches_per_value_sums(p):
    # one character sum per sextic class, against one per residue
    field = make_field(p)
    assert weierstrass_fiber_table(field) == _fiber_table_python(field)


def test_cone_weierstrass_matches_naive():
    assert count_cone_weierstrass(F7, sextic_base()) == 3661
    assert count_cone_weierstrass(F13, sextic_base()) == 38857


def test_cone_weierstrass_constant_bases():
    zero = WPolynomial.zero((), ())
    one = WPolynomial.constant((), (), 1)
    assert count_cone_weierstrass(F7, zero) == 7
    assert count_cone_weierstrass(F7, one) == 11


def _fiber_sum_oracle(field, f_base):
    # the full F_p^k histogram summed against the fiber table
    table = weierstrass_fiber_table(field)
    hist = gridcount.value_histogram(f_base, field)
    return sum(m * t for m, t in zip(hist, table))


@pytest.mark.parametrize("p", [7, 11, 13, 19])
def test_chart_sum_matches_full_histogram(p):
    field = make_field(p)
    rng = random.Random(600 + p)
    bases = [parse_polynomial("z0 + 2*z1^6 - z1^3*z2^3 + 3*z1*z2^5", ("z0", "z1", "z2"), (6, 1, 1)),
             sextic_base()]
    while len(bases) < 14:
        nvars = rng.randint(1, 3)
        weights = tuple(rng.randint(1, 4) for _ in range(nvars))
        f = random_homogeneous(rng, nvars, weights, rng.choice((6, 12)))
        if f is not None:
            bases.append(f)
    gcds = set()
    for f in bases:
        gcds |= {gcd(w, p - 1) for w in f.weights}
        cone = count_cone_weierstrass(field, f)
        assert cone == _fiber_sum_oracle(field, f), f
        assert count_cone_weierstrass(field, f, threads=3) == cone
    # every coset count weights 1-4 and 6 can give at this p was exercised
    assert {gcd(w, p - 1) for w in (1, 2, 3, 4, 6)} <= gcds


def test_chart_sum_with_omega_coefficients():
    names = ("z0", "z1", "z2")
    for text, weights in (("omega*z0^6 + (2 - omega)*z1^3*z2^3 + 3*z0*z1^5", (1, 1, 1)),
                          ("omega*z0^3 - z1^6 + (1 + 2*omega)*z0*z2^2", (2, 1, 2))):
        f = parse_polynomial(text, names, weights)
        assert f.has_eisenstein_coefficients()
        for threads in (1, 3):
            assert count_cone_weierstrass(F13, f, threads=threads) == _fiber_sum_oracle(F13, f)


@pytest.mark.parametrize("p", [7, 11, 13, 19])
def test_chart_sum_on_zero_and_constant_bases(p):
    field = make_field(p)
    for n, weights in ((0, ()), (1, (3,)), (2, (1, 2)), (3, (1, 1, 1))):
        names = tuple(f"z{i}" for i in range(n))
        for f in (WPolynomial.zero(names, weights),
                  *(WPolynomial.constant(names, weights, c) for c in (1, p, 5))):
            for threads in (1, 3):
                cone = count_cone_weierstrass(field, f, threads=threads)
                assert cone == _fiber_sum_oracle(field, f)
                origin = _point_evaluator(f, field)((0,) * n)
                assert cone == p ** n * weierstrass_fiber_table(field)[origin]


def test_chart_sum_refuses_unscalable_bases():
    names = ("z0", "z1")
    for text in ("z0^6 + z1^5", "z0^4 + z1^4"):  # not homogeneous; degree 4
        with pytest.raises(ValueError, match="divisible by 6"):
            count_cone_weierstrass(F7, parse_polynomial(text, names, (1, 1)))


def test_fast_count_evaluates_the_charts_only(monkeypatch):
    # the charts of P^2(F_13) hold 13^2 + 13 + 1 points; the full base grid 13^3
    evaluated = []
    original = gridcount._eval_block

    def counting_eval_block(plan, prefix, rest_axes):
        evaluated.append(prod(len(a) for a in rest_axes))
        return original(plan, prefix, rest_axes)

    monkeypatch.setattr(gridcount, "_eval_block", counting_eval_block)
    report = count_projective(F13, CURVE, method="weierstrass-fast")
    assert report.projective_count == 3238
    assert 0 < sum(evaluated) <= 13**2 + 13 + 1
    assert max(evaluated) <= gridcount.CHUNK_CAP


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43, 1009, 5, 11, 17, 23, 29, 1013])
def test_weierstrass_closed_form_ladder(p):
    # p = 2 mod 3: cubing is a bijection, so every fiber has p points
    expected = (p**3 + 7 * p**2 - 11 * p + 1 if p % 3 == 1
                else p**3 + p**2 + p + 1)
    report = count_projective(make_field(p), CURVE, method="weierstrass-fast")
    assert report.projective_count == expected


def test_fast_decomposition_identity():
    # sum over residues of multiplicity * fiber size equals the cone count
    table = weierstrass_fiber_table(F13)
    hist = gridcount.value_histogram(sextic_base(), F13)
    assert sum(m * t for m, t in zip(hist, table)) == count_cone_naive(F13, CURVE)


def test_weierstrass_shape_detection():
    shape = weierstrass_shape(CURVE, F7)
    assert shape is not None
    y_idx, x_idx, f_base = shape
    assert CURVE.variables[y_idx] == "y" and CURVE.variables[x_idx] == "x"
    assert f_base == sextic_base()
    assert weierstrass_shape(local_surface_split(), F7) is None
    assert weierstrass_shape(parse_polynomial("y^2 + x^3", ("x", "y"), (2, 3)), F7) is None
    # the shape is that of f mod p: a lead 7 vanishes mod 7 only
    lead7 = parse_polynomial("7*y^2 - 7*x^3 - z0^6 - z1^6 - z2^6", CURVE.variables, CURVE.weights)
    assert weierstrass_shape(lead7, F7) is None
    assert weierstrass_shape(lead7, F13)[2] == \
        parse_polynomial("7^5*(z0^6 + z1^6 + z2^6)", CURVE.variables[2:], CURVE.weights[2:])


def test_weierstrass_shape_with_omega_coefficients():
    names, weights = ("x", "y", "z0", "z1"), (2, 3, 1, 1)
    base_names = names[2:]

    def shape(text, field=F13):
        found = weierstrass_shape(parse_polynomial(text, names, weights), field)
        return found and found[2]

    assert shape("y^2 - x^3 - omega*z0^6 - (1 + omega)*z1^6") == \
        parse_polynomial("omega*z0^6 + (1 + omega)*z1^6", base_names, (1, 1))
    # a unit a = omega: y^2 = x^3 + omega^2 z0^6, and omega^2 = -1 - omega
    assert shape("omega*y^2 - omega*x^3 - z0^6 - z1^6") == \
        parse_polynomial("(-1 - omega)*z0^6 + (-1 - omega)*z1^6", base_names, (1, 1))
    # 2 is no unit of Z[omega]: the base is -2^5 * (-omega z0^6), not omega z0^6 / 2
    assert shape("2*y^2 - 2*x^3 - omega*z0^6") == \
        parse_polynomial("32*omega*z0^6", base_names, (1, 1))
    assert shape("y^2 + x^3 - omega*z0^6") is None
    # omega goes to 3 mod 13 and to 2 mod 7: 3 - omega vanishes mod 13 only
    assert shape("(3 - omega)*y^2 - (3 - omega)*x^3 - z0^6") is None
    assert shape("(3 - omega)*y^2 - (3 - omega)*x^3 - z0^6", F7) is not None
    with pytest.raises(ValueError, match="cube root"):  # omega has no image mod 11
        shape("omega*y^2 - omega*x^3 - z0^6", make_field(11))


# (lead a, base); integer a over the Fermat base, Eisenstein a over a base
# that needs omega as well
LEADS = [("2", "z0^6 + z1^6 + z2^6"), ("-3", "z0^6 + z1^6 + z2^6"),
         ("omega", "z0^6 + z1^6 + omega*z2^6"), ("(3 + omega)", "z0^6 + z1^6 + omega*z2^6")]


@pytest.mark.parametrize("field", [F7, F13], ids=["p7", "p13"])
@pytest.mark.parametrize("lead,base", LEADS, ids=[a for a, _ in LEADS])
def test_methods_agree_for_non_unit_leads(field, lead, base):
    # y^2 = x^3 + base / a counted through the base -a^5 * (-base)
    f = parse_polynomial(f"{lead}*y^2 - {lead}*x^3 - ({base})",
                         ("x", "y", "z0", "z1", "z2"), (2, 3, 1, 1, 1))
    counts = {m: count_projective(field, f, method=m).projective_count
              for m in ("naive", "burnside", "weierstrass-fast")}
    assert len(set(counts.values())) == 1
    expected = {("2", 13): 1639, ("(3 + omega)", 13): 2029, ("(3 + omega)", 7): 358}
    assert counts["naive"] == expected.get((lead, field.p), counts["naive"])


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, 6).filter(bool), st.sampled_from([5, 7, 11, 13]), st.randoms())
def test_weierstrass_fast_equals_burnside_for_integer_leads(a, p, rng):
    f = random_weierstrass(rng, 3)
    y_sq, x_cu = (0, 2, 0, 0, 0), (3, 0, 0, 0, 0)
    f = WPolynomial(f.variables, f.weights, {**f.terms, y_sq: a, x_cu: -a})
    field = make_field(p)
    if a % p == 0:
        assert weierstrass_shape(f, field) is None
        return
    fast = count_projective(field, f, method="weierstrass-fast")
    burnside = count_projective(field, f, method="burnside")
    assert fast.cone_count == burnside.cone_count
    assert fast.projective_count == burnside.projective_count


@pytest.mark.parametrize("field", [F7, F13], ids=["p7", "p13"])
def test_methods_agree_on_omega_weierstrass_curves(field):
    for text in ("y^2 - x^3 - omega*z0^6 - z1^6 - (1 + omega)*z2^6",
                 "omega*y^2 - omega*x^3 - z0^6 + omega*z1^3*z2^3"):
        f = parse_polynomial(text, ("x", "y", "z0", "z1", "z2"), (2, 3, 1, 1, 1))
        counts = {m: count_projective(field, f, method=m)
                  for m in ("naive", "burnside", "weierstrass-fast")}
        assert len({(r.cone_count, r.projective_count) for r in counts.values()}) == 1


# ---- projective counts ------------------------------------------------------

def test_projective_curve_all_methods():
    for method in ("naive", "burnside", "weierstrass-fast"):
        report = count_projective(F7, CURVE, method=method)
        assert isinstance(report, CountReport)
        assert report.cone_count == 3661
        assert report.projective_count == 610
        assert report.method == method


def test_projective_f13_fast():
    report = count_projective(F13, CURVE, method="weierstrass-fast")
    assert report.projective_count == 3238


def test_projective_single_orbit():
    f = parse_polynomial("y^2 - x^3", ("x", "y"), (2, 3))
    report = count_projective(F7, f, method="burnside")
    assert report.projective_count == 1
    report = count_projective(F7, f, method="naive")
    assert report.projective_count == 1


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_local_surface_counts(p):
    field = make_field(p)
    expected = p * p + 3 * p + 1
    for surface in (local_surface_split(), local_surface_normalized()):
        report = count_projective(field, surface, method="burnside")
        assert report.projective_count == expected


@pytest.mark.parametrize("p", [7, 13])
def test_twisted_local_surfaces_count_like_the_normalized_one(p):
    # rescaling s1, t1 absorbs the -64 and 144*omega^i coefficients whenever
    # omega is a square, which holds for p = 1 mod 6
    field = make_field(p)
    expected = p * p + 3 * p + 1
    for i in (0, 1, 2):
        report = count_projective(field, local_surface_twisted(i), method="burnside")
        assert report.projective_count == expected


def test_surface_naive_agrees_with_burnside():
    for surface in (local_surface_split(), local_surface_normalized()):
        naive = count_projective(F7, surface, method="naive")
        assert naive.projective_count == 71
        assert naive.cone_count == 427


def test_rational_orbit_count_differs_on_stabilized_strata():
    # plain scaling orbits overcount projective points exactly where the
    # support weights share a common factor: 78 orbits vs 71 points at p = 7
    assert rational_orbit_count(F7, local_surface_split()) == 78
    # on the threefold every orbit is free, so the two notions coincide
    assert rational_orbit_count(F7, CURVE) == 610


def test_count_projective_validates_inputs():
    with pytest.raises(ValueError, match="weighted-homogeneous"):
        count_projective(F7, parse_polynomial("y^2 - x", ("x", "y"), (2, 3)), method="naive")
    with pytest.raises(ValueError, match="Weierstrass shape"):
        count_projective(F7, local_surface_split(), method="weierstrass-fast")
    with pytest.raises(ValueError, match="unknown method"):
        count_projective(F7, CURVE, method="magic")


# ---- canonicalization -------------------------------------------------------

def test_canonical_representative_free_orbit():
    # (0,0,2,1,0) scales with plain lambda on weight-1 support; lex-min has z0=1
    weights = (2, 3, 1, 1, 1)
    rep = canonical_representative((0, 0, 2, 1, 0), weights, 7)
    assert rep == (0, 0, 1, 4, 0)
    orbit = {tuple(pow(lam, w, 7) * v % 7 for w, v in zip(weights, (0, 0, 2, 1, 0)))
             for lam in range(1, 7)}
    assert rep == min(orbit)
    assert all(canonical_representative(pt, weights, 7) == rep for pt in orbit)


def test_canonical_representative_stabilized_orbit():
    # support {t1} has weight gcd 3: all nonzero scalars are equivalent
    weights = (2, 3, 2, 3)
    reps = {canonical_representative((0, 0, 0, c), weights, 7) for c in range(1, 7)}
    assert reps == {(0, 0, 0, 1)}


def test_canonical_representative_zero_point():
    assert canonical_representative((0, 0), (1, 2), 7) == (0, 0)


# ---- method agreement property suite ----------------------------------------

def test_method_agreement_random_polynomials():
    rng = random.Random(31337)
    checked = 0
    for field in (F7, F13, make_field(19)):
        for _ in range(6):
            nvars = rng.randint(3, 4)
            weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nvars))
            f = random_homogeneous(rng, nvars, weights, rng.randint(2, 6))
            if f is None or not f.terms:
                continue
            naive = count_projective(field, f, method="naive")
            burnside = count_projective(field, f, method="burnside")
            assert naive.cone_count == burnside.cone_count
            assert naive.projective_count == burnside.projective_count
            # Burnside divisibility of the plain fixed-point sum
            rational_orbit_count(field, f)
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("weights", [(2, 4, 6), (4, 6, 2, 1)])
@pytest.mark.parametrize("p", [7, 11, 13])
def test_naive_count_matches_distinct_key_oracle(weights, p):
    # the streamed count (solutions equal to their own orbit key) against the
    # number of distinct canonical representatives of all nonzero solutions
    field = make_field(p)
    rng = random.Random(f"{weights} {p}")
    stabilized = 0
    for degree in (12, 12, 24):
        f = random_homogeneous(rng, len(weights), weights, degree)
        zeros = _common_zeros_python([f], field)
        nonzero = [pt for pt in zeros if any(pt)]
        stabilized += sum(support_gcd(weights, pt) > 1 for pt in nonzero)
        report = count_projective(field, f, method="naive")
        assert report.cone_count == len(zeros)
        assert report.projective_count == \
            len({canonical_representative(pt, weights, p) for pt in nonzero})
    assert stabilized  # strata with support weight gcd d > 1 occurred


def test_method_agreement_weierstrass_family():
    rng = random.Random(2718)
    for field in (F7, F13):
        for _ in range(4):
            f = random_weierstrass(rng, rng.randint(1, 2))
            counts = {m: count_projective(field, f, method=m).projective_count
                      for m in ("naive", "burnside", "weierstrass-fast")}
            assert len(set(counts.values())) == 1, counts
