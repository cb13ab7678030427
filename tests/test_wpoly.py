import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellrank import gridcount
from ellrank.curves import DEFINING_TEXT, THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS, defining_polynomial
from ellrank.fields import EisensteinInt, make_field
from ellrank.gridcount import values_at
from ellrank.parsing import parse_polynomial
from ellrank.wpoly import WPolynomial, euler_combination
from helpers import _point_evaluator, poly_power, random_homogeneous

XY = (("x", "y"), (2, 3))


def poly(text, variables=XY[0], weights=XY[1]):
    return parse_polynomial(text, variables, weights)


def test_defining_polynomial_structure():
    f = defining_polynomial()
    # expanded normal form: y^2, x^3, three z_i^6 and three z_i^3 z_j^3 terms
    assert len(f.terms) == 8
    assert f.is_weighted_homogeneous()
    assert f.weighted_degree() == 6


def test_zero_coefficients_dropped():
    f = poly("x^3 - x^3 + y^2")
    assert f.terms == {(0, 2): Fraction(1)}
    assert poly("x^3 - x^3") == WPolynomial.zero(*XY)
    assert str(poly("x^3 - x^3")) == "0"


def test_weighted_degree_per_term():
    f = poly("y^2 - x^3")
    assert f.weighted_degree() == 6
    assert f.is_weighted_homogeneous()
    g = poly("y^2 - x")
    assert not g.is_weighted_homogeneous()


def test_partial_derivative_examples():
    assert poly("y^2 - x^3").partial_derivative("y") == poly("2*y")
    assert poly("y^2").partial_derivative("x") == WPolynomial.zero(*XY)
    f = defining_polynomial()
    expected = parse_polynomial("-96*z0^5 + 96*z0^2*z1^3 + 96*z0^2*z2^3",
                                THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS)
    assert f.partial_derivative("z0") == expected


def test_partial_derivative_degree_drop():
    f = defining_polynomial()
    for name, w in zip(f.variables, f.weights):
        g = f.partial_derivative(name)
        if g.terms:
            assert g.is_weighted_homogeneous()
            assert g.weighted_degree() == 6 - w


def test_euler_identity_builtin():
    f = defining_polynomial()
    assert euler_combination(f) == f * 6


def test_euler_identity_random():
    rng = random.Random(20240)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        weights = tuple(rng.randint(1, 3) for _ in range(nvars))
        degree = rng.randint(2, 6)
        f = random_homogeneous(rng, nvars, weights, degree)
        if f is None:
            continue
        assert euler_combination(f) == f * degree


def _value(f, field, pt):
    """f mod p at one point, through the engine's point evaluator."""
    return int(values_at(f, field, [pt])[0])


def test_evaluate_mod_p_examples():
    f7 = make_field(7)
    assert _value(poly("y^2 - x^3"), f7, (1, 1)) == 0
    curve = defining_polynomial()
    assert _value(curve, f7, (0, 0, 2, 1, 0)) == 0
    omega_x = parse_polynomial("omega*x", ("x",), (1,))
    assert _value(omega_x, f7, (1,)) == 2  # omega -> 2, the smallest primitive cube root


def test_evaluate_eisenstein_requires_cube_root():
    f5 = make_field(5)
    omega_x = parse_polynomial("omega*x", ("x",), (1,))
    with pytest.raises(ValueError, match="cube root"):
        _value(omega_x, f5, (1,))


def test_evaluate_is_ring_homomorphism():
    f13 = make_field(13)
    a = parse_polynomial("x^2 + omega*y", XY[0], XY[1])
    b = parse_polynomial("3*x - omega^2", XY[0], XY[1])
    for pt in [(0, 0), (1, 5), (12, 7), (3, 3)]:
        va, vb = _value(a, f13, pt), _value(b, f13, pt)
        assert _value(a + b, f13, pt) == (va + vb) % 13
        assert _value(a * b, f13, pt) == va * vb % 13


def test_integer_coefficient_reduction():
    f7 = make_field(7)
    f = WPolynomial(("x", "y"), (1, 1), {(1, 0): -12, (0, 1): 10**30 + 3, (1, 1): 91})
    # -12 = 2 and 10^30 + 3 = 4 mod 7; 91 = 13 * 7 vanishes
    assert gridcount.reduced_terms(f, f7) == [((0, 1), 4), ((1, 0), 2)]
    assert _value(f, f7, (1, 1)) == 6
    with pytest.raises(TypeError, match="exact"):
        WPolynomial(("x",), (1,), {(1,): Fraction(1, 3)})


def test_restrict():
    f = defining_polynomial()
    g = f.restrict((2, 3, 4))  # only the z variables survive
    assert g.variables == ("z0", "z1", "z2")
    assert len(g.terms) == 6
    h = f.restrict(())
    assert h.nvars == 0 and not h.terms


def test_specialize():
    f = WPolynomial(XY[0], XY[1], {(1, 2): 3, (3, 1): 1, (2, 2): -5, (0, 1): 7})
    g = f.specialize({0: 2})  # x = 2; the y^2 terms merge: 6 - 20 = -14, and 8 + 7 = 15
    assert g.variables == ("y",) and g.weights == (3,)
    assert g == WPolynomial(("y",), (3,), {(2,): -14, (1,): 15})
    assert f.specialize({0: 2, 1: 3}).terms == {(): -81}
    assert f.specialize({}) == f
    with pytest.raises(TypeError, match="exact"):  # a value must be an integer
        f.specialize({0: Fraction(1, 2)})
    z = parse_polynomial("omega*a^2 + b*c", ("a", "b", "c"), (1, 1, 1))
    assert z.specialize({0: 0, 1: 4}) == parse_polynomial("4*c", ("c",), (1,))
    field = make_field(13)
    chart, value = _point_evaluator(z.specialize({0: 1, 1: 3}), field), _point_evaluator(z, field)
    for a in range(13):
        assert chart((a,)) == value((1, 3, a))


def test_fraction_coefficients_rejected():
    with pytest.raises(TypeError, match="exact"):
        WPolynomial(("x",), (1,), {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError, match="exact"):  # not even an integral one
        WPolynomial(("x",), (1,), {(1,): Fraction(2), (0,): EisensteinInt(0, 1)})
    f = WPolynomial.variable(("x",), (1,), "x")
    for op in (lambda q: f + q, lambda q: f - q, lambda q: q - f, lambda q: f * q,
               lambda q: q * f):
        with pytest.raises(TypeError):
            op(Fraction(1, 2))
    # an int and an Eisenstein coefficient add as elements of one ring
    eisenstein = WPolynomial(("x",), (1,), {(1,): EisensteinInt(0, 1)})
    assert (f + eisenstein).terms == {(1,): EisensteinInt(1, 1)}


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="exact"):
        WPolynomial(("x",), (1,), {(1,): 0.5})


def test_canonical_printing_order():
    f = poly("y^2 - x^3 + 1 + x*y")
    # descending graded-lex on exponent tuples: x^3 (3,0), x*y (1,1), y^2 (0,2), 1
    assert str(f) == "-x^3 + x*y + y^2 + 1"


def test_print_parse_roundtrip_integer_polys():
    rng = random.Random(77)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        names = tuple(f"v{i}" for i in range(nvars))
        weights = tuple(rng.randint(1, 3) for _ in range(nvars))
        terms = {}
        for _ in range(rng.randint(1, 7)):
            exps = tuple(rng.randint(0, 4) for _ in range(nvars))
            terms[exps] = rng.randint(-20, 20)
        f = WPolynomial(names, weights, terms)
        assert parse_polynomial(str(f), names, weights) == f


def test_print_parse_roundtrip_eisenstein():
    names, weights = ("s", "t"), (1, 1)
    terms = {
        (3, 0): EisensteinInt(0, 1),
        (1, 1): EisensteinInt(2, -3),
        (0, 0): EisensteinInt(-4, 0),
        (0, 2): EisensteinInt(0, -2),
        (2, 2): EisensteinInt(1, 1),
    }
    f = WPolynomial(names, weights, terms)
    assert parse_polynomial(str(f), names, weights) == f


def test_pow_and_arithmetic():
    x = WPolynomial.variable(XY[0], XY[1], "x")
    y = WPolynomial.variable(XY[0], XY[1], "y")
    assert poly_power(x + y, 2) == x * x + 2 * x * y + y * y
    assert (x - y) * (x + y) == x * x - y * y
    assert poly_power(x, 0) == WPolynomial.constant(XY[0], XY[1], 1)
    # the parser's square-and-multiply agrees with repeated multiplication
    for n in range(12):
        assert parse_polynomial(f"(x - 2*y)^{n}", *XY) == poly_power(x - 2 * y, n)


def test_polynomials_are_unhashable():
    with pytest.raises(TypeError):
        hash(poly("x + y"))


# ---- arithmetic results are normal without re-normalizing -------------------

EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
INTEGERS = st.integers(-4, 4)
EISENSTEIN = st.builds(EisensteinInt, INTEGERS, INTEGERS)


def polys(coefficients):
    return st.dictionaries(EXPONENTS, coefficients, max_size=6) \
        .map(lambda terms: WPolynomial(*XY, terms))


def _assert_normal(r: WPolynomial):
    # no zero coefficient, and an EisensteinInt only where an omega part survives
    assert r == WPolynomial(r.variables, r.weights, r.terms)
    assert all(r.terms.values())
    assert all(type(c) is int or c.b for c in r.terms.values())


def _ring_results(f, g, n, k):
    return [f + g, g + f, f - g, g - f, -f, f * g, g * f, f * n, n * f, f + n, n - f,
            poly_power(f, k), f.partial_derivative("x"), f.partial_derivative("y")]


@given(polys(INTEGERS), polys(INTEGERS), INTEGERS, st.integers(-10**20, 10**20),
       st.integers(0, 3))
def test_integer_arithmetic_results_are_normal(f, g, n, q, k):
    for r in _ring_results(f, g, n, k) + [f * q, q * f, f - q]:
        _assert_normal(r)
    with pytest.raises(TypeError):
        f * Fraction(q, 3)


@given(polys(EISENSTEIN), polys(st.one_of(EISENSTEIN, INTEGERS)), INTEGERS, EISENSTEIN,
       st.integers(0, 3))
def test_eisenstein_arithmetic_results_are_normal(f, g, n, u, k):
    # g mixes int and Eisenstein coefficients in one polynomial
    for r in _ring_results(f, g, n, k) + [f * u, u * f, g * u, f - u]:
        _assert_normal(r)


@given(polys(INTEGERS), INTEGERS, INTEGERS)
def test_cancelled_omega_is_stored_as_int(f, a, b):
    # (a + b omega)(a + b omega^2) = a^2 - ab + b^2: the omega parts cancel
    u = EisensteinInt(a, b)
    conjugate = WPolynomial.constant(*XY, u.conjugate())
    for r in (f * u * u.conjugate(), (f * u) * conjugate, conjugate * u * f):
        _assert_normal(r)
        assert r == f * u.norm() and not r.has_eisenstein_coefficients()
