import pytest

from ellrank.fields import OMEGA, make_field
from ellrank.sections import (SectionPoint, builtin_sections, curve_rhs,
                              omega_twist, section_records, verify_section)
from ellrank.wpoly import WPolynomial
from helpers import _point_evaluator, max_exponent

VARS, WEIGHTS = ("s", "t"), (1, 1)


def _eis(text: str) -> WPolynomial:
    from ellrank.parsing import parse_polynomial
    return parse_polynomial(text, VARS, WEIGHTS)


def _swap_st(poly: WPolynomial) -> WPolynomial:
    return WPolynomial(poly.variables, poly.weights,
                       {(e[1], e[0]): c for e, c in poly.terms.items()})


def test_six_sections_all_verify():
    sections = builtin_sections()
    assert len(sections) == 6
    assert {s.label for s in sections} == \
        {"P1", "P2", "P3", "omega*P1", "omega*P2", "omega*P3"}
    for s in sections:
        assert verify_section(s) == WPolynomial.zero(VARS, WEIGHTS)


def test_negated_x_candidates_leave_cubic_residuals():
    # flipping the sign of x changes x^3 by 2*x^3 = 2*64*(..)^3 = 128*(..)^3
    p1_bad = SectionPoint("P1-", _eis("-4*s"), _eis("4*(t^3 - s^3 - 1)"))
    assert verify_section(p1_bad) == _eis("128*s^3")
    p2_bad = SectionPoint("P2-", _eis("-4*t"), _eis("4*(s^3 - t^3 - 1)"))
    assert verify_section(p2_bad) == _eis("128*t^3")
    p3_bad = SectionPoint("P3-", _eis("-4*t*s"), _eis("4*(1 - s^3 - t^3)"))
    assert verify_section(p3_bad) == _eis("128*t^3*s^3")


def test_sign_choice_recorded():
    for record in section_records():
        assert record["verified"] is True
        assert record["residual"] == "0"
        assert "rejected" in record["sign_choice"]
        assert "128" in record["sign_choice"]


def test_records_expand_each_residual_once(monkeypatch):
    # both signs of the three candidates, then the three omega twists; the
    # chosen signs' residuals are not expanded again
    from ellrank import sections
    labels = []
    original = sections.verify_section

    def recording_verify_section(pt):
        labels.append(pt.label)
        return original(pt)

    monkeypatch.setattr(sections, "verify_section", recording_verify_section)
    records = section_records()
    assert [r["label"] for r in records] == \
        ["P1", "P2", "P3", "omega*P1", "omega*P2", "omega*P3"]
    assert labels == ["P1", "P1", "P2", "P2", "P3", "P3", "omega*P1", "omega*P2", "omega*P3"]


def test_zero_point_residual_is_minus_rhs():
    zero = WPolynomial.zero(VARS, WEIGHTS)
    pt = SectionPoint("origin", zero, zero)
    assert verify_section(pt) == -curve_rhs()


def test_sign_choice_defaults_to_empty():
    zero = WPolynomial.zero(VARS, WEIGHTS)
    assert SectionPoint(label="origin", x=zero, y=zero).sign_choice == ""


def test_omega_twist_identity_and_invariance():
    sections = builtin_sections()
    p1 = sections[0]
    assert omega_twist(p1, 0) is p1
    for k in (1, 2):
        twisted = omega_twist(p1, k)
        assert verify_section(twisted) == WPolynomial.zero(VARS, WEIGHTS)
    with pytest.raises(ValueError):
        omega_twist(p1, 3)


def test_twist_preserves_residual_for_arbitrary_points():
    # x enters the equation only through x^3 and omega^3 = 1, so the residual
    # is unchanged even for points that are NOT on the curve
    candidates = [
        SectionPoint("a", _eis("s + 2*t"), _eis("t^3 - 5")),
        SectionPoint("b", _eis("3*s*t - 1"), _eis("s^2 + t")),
        SectionPoint("c", _eis("omega*s^2"), _eis("7*t - s")),
    ]
    for pt in candidates:
        base = verify_section(pt)
        assert verify_section(omega_twist(pt, 1)) == base
        assert verify_section(omega_twist(pt, 2)) == base


def test_s_t_symmetry_maps_p1_residual_to_p2():
    p1_bad = SectionPoint("P1-", _eis("-4*s"), _eis("4*(t^3 - s^3 - 1)"))
    p2_bad = SectionPoint("P2-", _eis("-4*t"), _eis("4*(s^3 - t^3 - 1)"))
    assert _swap_st(verify_section(p1_bad)) == verify_section(p2_bad)
    # the equation itself is s-t symmetric
    assert _swap_st(curve_rhs()) == curve_rhs()


def test_degree_bounds():
    for s in builtin_sections():
        assert max_exponent(s.x, "s") <= 2 and max_exponent(s.x, "t") <= 2
        assert max_exponent(s.y, "s") <= 3 and max_exponent(s.y, "t") <= 3


@pytest.mark.parametrize("p", [7, 13])
def test_specialization_compatibility(p):
    field = make_field(p)
    rhs = _point_evaluator(curve_rhs(), field)
    for s in builtin_sections():
        x_at, y_at = _point_evaluator(s.x, field), _point_evaluator(s.y, field)
        for point in [(0, 0), (1, 1), (2, 5), (p - 1, 3)]:
            x0, y0, c = x_at(point), y_at(point), rhs(point)
            assert (y0 * y0 - x0**3 - c) % p == 0


def test_twisted_x_coordinate_actually_multiplied():
    sections = builtin_sections()
    p1 = sections[0]
    twisted = omega_twist(p1, 1)
    assert twisted.x == p1.x * OMEGA
    assert twisted.y == p1.y
    assert twisted.label == "omega*P1"


def test_a_section_outside_the_six():
    # x = -4(s^2 + st + t^2 + s + t + 1) gives x^3 + RHS = -48 g^2, and
    # (1 + 2 omega)^2 = -3, so y = 4(1 + 2 omega) g puts Q on the curve; its x
    # is quadratic, none of the six sections' x = 4 omega^k (s, t or st) up
    # to sign (ROADMAP item 3)
    x = _eis("-4*(s^2 + s*t + t^2 + s + t + 1)")
    g = _eis("s^3 + t^3 + 1 + 2*(s^2*t + s*t^2 + s^2 + t^2 + s*t + s + t)")
    assert x * x * x + curve_rhs() == _eis("-48") * g * g
    q = SectionPoint("Q", x, _eis("4*(1 + 2*omega)") * g)
    assert verify_section(q) == WPolynomial.zero(VARS, WEIGHTS)
    for base in ("s", "t", "s*t"):
        for k in range(3):
            for sign in (1, -1):
                assert x != _eis(f"{4 * sign}*omega^{k}*{base}")
