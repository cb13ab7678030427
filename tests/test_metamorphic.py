"""Metamorphic oracles: counts of transformed curves whose answer is known in
closed form, so a shortcut that is wrong only on inputs without the built-in
curve's structure (sparsity, cube exponents, monomial factors) still fails.

  * The six sextic twists.  For c in F_p and a primitive root g,
    sum_j #{y^2 = x^3 + g^j c} = 6p, so for any sextic base f the twists
    y^2 = x^3 + g^j f, j = 0..5, sum to 6(p^3 + p^2 + p + 1) points.
  * One split twist.  On a base with nine cusps (the built-in one and the
    Hesse duals), exactly one of the six twists has the feasible set {12}
    of h4_sigma = 18, chi = -2, and the other five have none (ROADMAP
    item 5).
  * PGL3 invariance.  For g in GL3(F_p), y^2 = x^3 + F and y^2 = x^3 + F.g
    have the same count, and g^-1 maps the singular points of the first
    onto those of the second.  F.g of the built-in base is dense where F
    has six terms.
"""

import random

import pytest

from ellrank import betti, counting
from ellrank.curves import THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS, sextic_base
from ellrank.fields import make_field, primitive_root
from ellrank.parsing import parse_polynomial
from ellrank.singular import expected_singularities
from ellrank.wpoly import WPolynomial
from helpers import canonical_representative, poly_power, random_homogeneous, run_cli

BASE_VARIABLES, BASE_WEIGHTS = THREEFOLD_VARIABLES[2:], THREEFOLD_WEIGHTS[2:]


def _base(text: str) -> WPolynomial:
    return parse_polynomial(text, BASE_VARIABLES, BASE_WEIGHTS)


def _hesse_dual(lam: int) -> WPolynomial:
    """The dual of the Hesse cubic s^3 + t^3 + u^3 + lam*s*t*u: a sextic with
    nine cusps for lam^3 != -27."""
    return _base(f"27*(z0^6+z1^6+z2^6) - {4 * lam**3 + 54}*(z0^3*z1^3+z0^3*z2^3+z1^3*z2^3)"
                 f" - {18 * lam**2}*z0*z1*z2*(z0^3+z1^3+z2^3)"
                 f" - {lam**4 + 108 * lam}*z0^2*z1^2*z2^2")


BASES = {
    "builtin": sextic_base(),
    # P^3 + Q^2 for a conic P and a cubic Q: cusps where P = Q = 0
    "zariski": _base("(z0^2 + z1*z2)^3 + (z0^3 + z1^3 + z2^3 - z0*z1*z2)^2"),
    # the lambda = 1 Hesse dual, nine cusps like the built-in base
    "hesse_dual": _hesse_dual(1),
    "random": random_homogeneous(random.Random(46), 3, BASE_WEIGHTS, 6, names=BASE_VARIABLES),
}


def _weierstrass(base: WPolynomial, c: int) -> WPolynomial:
    """y^2 - x^3 - c * base over the threefold's variables."""
    terms = {(0, 2, 0, 0, 0): 1, (3, 0, 0, 0, 0): -1}
    terms.update({(0, 0) + e: -c * k for e, k in base.terms.items()})
    return WPolynomial(THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS, terms)


_TWIST_CASES = [(m, p) for m in ("weierstrass-fast", "burnside") for p in (7, 11, 13, 19)] \
    + [("weierstrass-fast", 101), ("weierstrass-fast", 307), ("burnside", 61)] \
    + [("naive", 7), ("naive", 13)]


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("method,p", _TWIST_CASES)
def test_six_sextic_twists_sum_to_closed_form(base, method, p):
    field, g = make_field(p), primitive_root(p)
    counts = [counting.count_projective(field, _weierstrass(BASES[base], pow(g, j, p)),
                                        method).projective_count for j in range(6)]
    assert sum(counts) == 6 * (p**3 + p**2 + p + 1), counts


def test_builtin_twist_counts_at_p7():
    field, g = make_field(7), primitive_root(7)
    counts = [counting.count_projective(field, _weierstrass(BASES["builtin"], pow(g, j, 7)))
              .projective_count for j in range(6)]
    assert counts == [610, 505, 295, 190, 295, 505]


# each base and the j of its one twist y^2 = x^3 + g^j f with feasible set
# {12}, at p = 13, 19, 31
_SPLIT_TWISTS = {"builtin": (BASES["builtin"], (0, 0, 0)),
                 "hesse_dual_1": (BASES["hesse_dual"], (0, 5, 5)),
                 "hesse_dual_2": (_hesse_dual(2), (2, 3, 3))}


@pytest.mark.parametrize("base", sorted(_SPLIT_TWISTS))
def test_exactly_one_sextic_twist_is_feasible(base):
    f, splits = _SPLIT_TWISTS[base]
    for p, split in zip((13, 19, 31), splits):
        field, g = make_field(p), primitive_root(p)
        feasible = []
        for j in range(6):
            count = counting.count_projective(field, _weierstrass(f, pow(g, j, p)),
                                              "weierstrass-fast").projective_count
            feasible.append(betti.feasible_w23(betti.BettiInputs(p, count, 18, -2)))
        assert feasible == [(12,) if j == split else () for j in range(6)], (p, feasible)


# ---- PGL3 invariance ---------------------------------------------------------

# weierstrass-fast into the hundreds, burnside while p^5 fits the default
# budget, naive where the cone is small
PGL_CASES = [("weierstrass-fast", p) for p in (7, 11, 13, 19, 97, 101, 211, 307, 311)] \
    + [("burnside", p) for p in (7, 11, 13, 19, 31, 43, 61)] + [("naive", 7)]


def _det(g) -> int:
    (a, b, c), (d, e, f), (h, i, j) = g
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


def _seeded_matrix(p: int):
    """A 3 x 3 integer matrix, entries in [-3, 3], drawn from a generator
    seeded by p, invertible mod p."""
    rng = random.Random(2008 + p)
    while True:
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det(g) % p:
            return g


def _inverse_mod(g, p: int):
    """g^-1 mod p by the adjugate."""
    inv = pow(_det(g), -1, p)
    minor = [[g[(r + 1) % 3][(c + 1) % 3] * g[(r + 2) % 3][(c + 2) % 3]
              - g[(r + 1) % 3][(c + 2) % 3] * g[(r + 2) % 3][(c + 1) % 3]
              for c in range(3)] for r in range(3)]
    return [[minor[c][r] * inv % p for c in range(3)] for r in range(3)]


def _composed(g) -> list[str]:
    """The --curve flags of y^2 - x^3 - F.g for the built-in base F."""
    z = [WPolynomial.variable(BASE_VARIABLES, BASE_WEIGHTS, v) for v in BASE_VARIABLES]
    linear = [sum((k * v for k, v in zip(row, z)), WPolynomial.zero(BASE_VARIABLES, BASE_WEIGHTS))
              for row in g]
    composed = WPolynomial.zero(BASE_VARIABLES, BASE_WEIGHTS)
    for exps, c in sextic_base().terms.items():
        term = WPolynomial.constant(BASE_VARIABLES, BASE_WEIGHTS, c)
        for form, e in zip(linear, exps):
            term = term * poly_power(form, e)
        composed = composed + term
    assert len(composed.terms) > 20  # dense: the base has 6 of the 28 sextic monomials
    return ["--curve", str(_weierstrass(composed, 1)), "--vars", ",".join(THREEFOLD_VARIABLES),
            "--weights", ",".join(map(str, THREEFOLD_WEIGHTS))]


def _closed_form(p: int) -> int:
    return p**3 + 7 * p**2 - 11 * p + 1 if p % 3 == 1 else p**3 + p**2 + p + 1


@pytest.mark.parametrize("method,p", PGL_CASES)
def test_composed_base_keeps_the_count(method, p):
    composed = _composed(_seeded_matrix(p))
    code, doc, _ = run_cli(["count", "--prime", str(p), "--method", method] + composed)
    assert code == 0
    assert doc["counts"]["projective"] == _closed_form(p)


def test_composed_base_moves_the_cusps_by_the_inverse():
    p = 13
    g = _seeded_matrix(p)
    inverse = _inverse_mod(g, p)
    moved = sorted(canonical_representative(
        (0, 0) + tuple(sum(k * v for k, v in zip(row, pt[2:])) for row in inverse),
        THREEFOLD_WEIGHTS, p) for pt in expected_singularities(make_field(p)))
    code, doc, _ = run_cli(["singular", "--prime", str(p)] + _composed(g))
    assert code == 0
    assert doc["singular"]["points"] == [":".join(map(str, pt)) for pt in moved]
