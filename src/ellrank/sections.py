"""Symbolic verification of explicit sections of the elliptic fibration.

A section is a pair (x(s,t), y(s,t)) of polynomials over Z[omega] satisfying

    y^2 = x^3 + 16 s^6 + 16 t^6 - 32 (t^3 s^3 + t^3 + s^3) + 16

identically.  Verification returns the residual y^2 - x^3 - RHS as an exact
polynomial; membership means the residual is literally zero, never a numeric
approximation.

The x-coordinate enters only through x^3, so each candidate section is only
determined up to the sign of x by its square and cube; builtin_sections()
therefore tries both signs of every candidate, ships the one whose residual
vanishes, and records the rejected sign's residual.  Multiplying x by a cube
root of unity (the omega twist) also preserves membership and yields the
second triple of sections.

Each candidate's coordinates are built from tables of their terms (exponent
tuple in (s, t) to coefficient), so verification parses no text.  The text
beside each table documents it, and the test suite keeps the two equal by
parsing the text; the x text also names the signs in the sign-choice notes.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .curves import sextic_base
from .errors import ConsistencyError
from .fields import OMEGA
from .wpoly import WPolynomial

SECTION_VARIABLES = ("s", "t")
SECTION_WEIGHTS = (1, 1)

# Candidate coordinates, (label, x text, x terms, y text, y terms); the x
# sign is settled by the residual oracle.
_CANDIDATES = (
    ("P1", "4*s", {(1, 0): 4},
     "4*(t^3 - s^3 - 1)", {(0, 3): 4, (3, 0): -4, (0, 0): -4}),
    ("P2", "4*t", {(0, 1): 4},
     "4*(s^3 - t^3 - 1)", {(3, 0): 4, (0, 3): -4, (0, 0): -4}),
    ("P3", "4*t*s", {(1, 1): 4},
     "4*(1 - s^3 - t^3)", {(0, 0): 4, (3, 0): -4, (0, 3): -4}),
)


def _poly(terms: dict) -> WPolynomial:
    return WPolynomial(SECTION_VARIABLES, SECTION_WEIGHTS, terms)


@cache
def curve_rhs() -> WPolynomial:
    """Right-hand side of the defining equation, over Z[omega] in (s, t): the
    sextic base on the chart z2 = 1, with (z0, z1) named (s, t).  Built once;
    callers must not mutate it."""
    chart = sextic_base().specialize({2: 1})
    return WPolynomial(SECTION_VARIABLES, SECTION_WEIGHTS, chart.terms)


class SectionPoint(NamedTuple):
    """A candidate point of the fibration with polynomial coordinates."""

    label: str
    x: WPolynomial
    y: WPolynomial
    sign_choice: str = ""


def verify_section(pt: SectionPoint) -> WPolynomial:
    """Residual y^2 - x^3 - RHS; the point lies on the curve iff it is zero."""
    return pt.y * pt.y - pt.x * pt.x * pt.x - curve_rhs()


def omega_twist(pt: SectionPoint, k: int) -> SectionPoint:
    """Multiply the x-coordinate by omega^k (k in {0, 1, 2}); membership is
    preserved because (omega^k)^3 = 1."""
    if k not in (0, 1, 2):
        raise ValueError("twist exponent must be 0, 1 or 2")
    if k == 0:
        return pt
    label = f"omega{'^2' if k == 2 else ''}*{pt.label}"
    return SectionPoint(label=label, x=pt.x * (OMEGA ** k), y=pt.y,
                        sign_choice=pt.sign_choice)


@cache
def _candidates() -> tuple[tuple[str, str, WPolynomial, WPolynomial], ...]:
    """(label, x text, x, y) per candidate, built once; callers must not
    mutate the polynomials."""
    return tuple((label, x_text, _poly(x_terms), _poly(y_terms))
                 for label, x_text, x_terms, _, y_terms in _CANDIDATES)


def _verified_sections() -> list[tuple[SectionPoint, WPolynomial]]:
    """The six built-in sections, each with its residual.

    For each candidate both sign choices of x are verified; exactly one must
    give a zero residual (ConsistencyError otherwise), and the outcome
    (including the rejected sign's residual) is recorded on the shipped
    point, which keeps the chosen sign's residual.  Only the omega twists
    are verified anew.
    """
    base: list[tuple[SectionPoint, WPolynomial]] = []
    for label, x_text, x, y in _candidates():
        plus = SectionPoint(label=label, x=x, y=y)
        minus = SectionPoint(label=label, x=-x, y=y)
        residual_plus = verify_section(plus)
        residual_minus = verify_section(minus)
        if bool(residual_plus) == bool(residual_minus):
            raise ConsistencyError(
                f"{label}: expected exactly one verifying sign, got residuals "
                f"{residual_plus} and {residual_minus}")
        if residual_plus:
            chosen, rejected, rejected_res = minus, f"{x_text}", residual_plus
            chosen_desc, residual = f"-({x_text})", residual_minus
        else:
            chosen, rejected, rejected_res = plus, f"-({x_text})", residual_minus
            chosen_desc, residual = x_text, residual_plus
        note = (f"x = {chosen_desc}; rejected x = {rejected} "
                f"(residual {rejected_res})")
        base.append((SectionPoint(label=chosen.label, x=chosen.x, y=chosen.y,
                                  sign_choice=note), residual))
    twists = [omega_twist(pt, 1) for pt, _ in base]
    return base + [(pt, verify_section(pt)) for pt in twists]


def builtin_sections() -> list[SectionPoint]:
    """The six built-in sections, x signs fixed by the residual oracle: for
    each candidate exactly one sign of x must give a zero residual, and the
    outcome (including the rejected sign's residual) is recorded on the
    shipped point; the omega twists of the three follow."""
    return [pt for pt, _ in _verified_sections()]


def section_records() -> list[dict]:
    """Verification summary for every built-in section (report form)."""
    return [{
        "label": pt.label,
        "verified": not residual,
        "residual": str(residual),
        "sign_choice": pt.sign_choice,
    } for pt, residual in _verified_sections()]
