import time
from fractions import Fraction

import pytest

from ellrank import curves, sections
from ellrank.fields import EisensteinInt
from ellrank.parsing import MAX_NESTING, MAX_TERM_PAIRS, ParseError, parse_polynomial
from ellrank.wpoly import WPolynomial
from helpers import run_cli

XY = (("x", "y"), (2, 3))


def test_basic_two_term():
    f = parse_polynomial("y^2 - x^3", *XY)
    assert f.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    assert f.is_weighted_homogeneous() and f.weighted_degree() == 6


def test_precedence_power_over_times_over_plus():
    f = parse_polynomial("2*x^2 + 3", ("x",), (1,))
    assert f.terms == {(2,): Fraction(2), (0,): Fraction(3)}
    g = parse_polynomial("-x^2", ("x",), (1,))
    assert g.terms == {(2,): Fraction(-1)}  # unary minus binds looser than ^
    h = parse_polynomial("2 + 3*4^2", ("x",), (1,))
    assert h.terms == {(0,): Fraction(50)}


def test_parentheses_and_expansion():
    f = parse_polynomial("(x + y)^2", ("x", "y"), (1, 1))
    assert f.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
    g = parse_polynomial("16*(x - 2*(x + y))", ("x", "y"), (1, 1))
    assert g.terms == {(1, 0): Fraction(-16), (0, 1): Fraction(-32)}


def test_whitespace_insignificant():
    a = parse_polynomial("y ^ 2-x ^3", *XY)
    b = parse_polynomial("y^2 - x^3", *XY)
    assert a == b


def test_syntax_error_position():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x^2 +", ("x",), (1,))
    assert excinfo.value.position == 5
    assert "offset 5" in str(excinfo.value)


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'w'"):
        parse_polynomial("x + w", ("x",), (1,))


def test_unexpected_character():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x @ y", ("x", "y"), (1, 1))
    assert excinfo.value.position == 2


def test_trailing_token():
    with pytest.raises(ParseError, match="trailing"):
        parse_polynomial("x y", ("x", "y"), (1, 1))


def test_missing_close_paren():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_polynomial("(x + y", ("x", "y"), (1, 1))


def test_exponent_must_be_integer():
    with pytest.raises(ParseError, match="integer exponent"):
        parse_polynomial("x^y", ("x", "y"), (1, 1))
    with pytest.raises(ParseError, match="exceeds limit"):
        parse_polynomial("x^99999", ("x",), (1,))


def test_exponent_limit_holds_for_the_result():
    # MAX_EXPONENT bounds every exponent of the expanded polynomial, checked
    # before any multiplication: chained powers and products are refused at
    # once, with the exponent they would reach
    assert parse_polynomial("x^1024", ("x",), (1,)).terms == {(1024,): 1}
    assert parse_polynomial("x^512*x^512 + (x^2)^512", ("x",), (1,)).terms == {(1024,): 2}
    for text, top in (("x^1024^1024^1024", 1024**2), ("(x^2)^513", 1026),
                      ("x^1000*x^1000", 2000), ("x^1024*y*x", 1025)):
        with pytest.raises(ParseError, match=f"exponent {top} exceeds limit 1024"):
            parse_polynomial(text, ("x", "y"), (1, 1))
    # a constant base has no exponent to grow: only the literal is bounded
    assert parse_polynomial("2^1024", ("x",), (1,)).terms == {(0,): 2**1024}


@pytest.mark.parametrize("text", ["x^1024^1024^1024", "(x^2)^513", "x^1000*x^1000"])
def test_exponent_past_the_limit_exits_3_at_once(text):
    start = time.perf_counter()
    code, doc, _ = run_cli(["count", "--prime", "7", "--curve", text,
                            "--vars", "x", "--weights", "1"])
    assert code == 3 and doc["status"] == "invalid-config"
    assert "exceeds limit 1024" in doc["message"]
    assert time.perf_counter() - start < 5


def test_expansion_work_is_bounded():
    names, weights = ("a", "b", "c", "d", "e"), (1,) * 5
    # 11 squarings of a single term are 11 products: far below the cap
    assert parse_polynomial("a^1024", names, weights).terms == {(1024, 0, 0, 0, 0): 1}
    assert len(parse_polynomial("(a+b+c+d+e)^6", names, weights).terms) == 210
    with pytest.raises(ParseError, match=f"exceeds {MAX_TERM_PAIRS} term products"):
        parse_polynomial("(a+b+c+d+e)^1024", names, weights)
    # a product of sums is charged the same way as a power
    with pytest.raises(ParseError, match="term products"):
        parse_polynomial("*".join(["(a+b+c+d+e)"] * 30), names, weights)


def test_omega_constant():
    f = parse_polynomial("omega^2 + omega + 1", ("x",), (1,))
    assert f == WPolynomial.zero(("x",), (1,))
    g = parse_polynomial("omega*x - x", ("x",), (1,))
    assert g.terms == {(1,): EisensteinInt(-1, 1)}


def test_cancelled_omega_is_an_int():
    f = parse_polynomial("omega^3*x", ("x",), (1,))
    assert f.terms == {(1,): 1} and type(f.terms[(1,)]) is int
    assert not f.has_eisenstein_coefficients()
    g = parse_polynomial("omega*(omega + 1)*x + 3", ("x",), (1,))  # omega + omega^2 = -1
    assert g.terms == {(1,): -1, (0,): 3} and not g.has_eisenstein_coefficients()


def test_omega_promotes_integer_literals():
    f = parse_polynomial("2 + omega", ("x",), (1,))
    assert f.terms == {(0,): EisensteinInt(2, 1)}


def test_double_unary_minus():
    f = parse_polynomial("--x", ("x",), (1,))
    assert f.terms == {(1,): Fraction(1)}


def test_long_minus_chains_parse():
    # a run of minus signs is counted, not recursed into
    x = parse_polynomial("x", ("x",), (1,))
    assert parse_polynomial("-" * 3000 + "x", ("x",), (1,)) == x
    assert parse_polynomial("-" * 3001 + "x", ("x",), (1,)) == -x
    assert parse_polynomial("0" + "--" * 600 + "x", ("x",), (1,)) == x


def test_nesting_is_bounded():
    x = parse_polynomial("x", ("x",), (1,))
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, ("x",), (1,)) == x
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as info:
            parse_polynomial("(" * depth + "x" + ")" * depth, ("x",), (1,))
        assert info.value.position == MAX_NESTING  # the offending '('


def test_parse_print_idempotent():
    texts = [
        "y^2 - x^3",
        "16*(x^2 + y^2) - 3",
        "-x^3 + 2*x*y - 7",
    ]
    for text in texts:
        once = parse_polynomial(text, *XY)
        again = parse_polynomial(str(once), *XY)
        assert once == again and str(once) == str(again)


# ---- the built-in tables --------------------------------------------------------
# The built-in polynomials are built from term tables; the parse of the text
# that documents each table is the oracle.

_THREEFOLD = (curves.THREEFOLD_VARIABLES, curves.THREEFOLD_WEIGHTS)
_SURFACE = (curves.SURFACE_VARIABLES, curves.SURFACE_WEIGHTS)


@pytest.mark.parametrize("build,text,space", [
    (curves.defining_polynomial, curves.DEFINING_TEXT, _THREEFOLD),
    (curves.sextic_base, curves.SEXTIC_TEXT, tuple(axis[2:] for axis in _THREEFOLD)),
    (curves.local_surface_normalized, curves.SURFACE_NORMALIZED_TEXT, _SURFACE),
    (curves.local_surface_split, curves.SURFACE_SPLIT_TEXT, _SURFACE),
], ids=["threefold", "sextic_base", "surface_normalized", "surface_split"])
def test_builtin_polynomial_is_the_parse_of_its_text(build, text, space):
    assert build() == parse_polynomial(text, *space)


def test_section_candidates_are_the_parses_of_their_texts():
    space = (sections.SECTION_VARIABLES, sections.SECTION_WEIGHTS)

    def parse(text):
        return parse_polynomial(text, *space)

    built = sections._candidates()
    assert [c[0] for c in built] == ["P1", "P2", "P3"]
    for (label, x_text, _, y_text, _), (_, _, x, y) in zip(sections._CANDIDATES, built):
        assert x == parse(x_text), label
        assert y == parse(y_text), label
