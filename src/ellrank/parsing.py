"""Recursive-descent parser for polynomial text.

Grammar (whitespace insignificant):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary ('*' unary)*
    unary  :=  '-'* power
    power  :=  atom ('^' INT)*
    atom   :=  INT | NAME | '(' expr ')'

'^' binds tighter than '*', which binds tighter than '+'/'-'; unary minus sits
between them, so -x^2 parses as -(x^2).  NAME is [a-zA-Z][a-zA-Z0-9_]*; the
name ``omega`` is the cube-root-of-unity constant, everything else must be a
declared variable.  Exponents are literal nonnegative integers, and no
power or product may reach an exponent above MAX_EXPONENT (checked before
it is multiplied out).
Parentheses nest at most MAX_NESTING deep, so that no text exhausts the
interpreter's recursion limit; a run of minus signs is read in a loop.

The polynomial is built over Z[omega] (the grammar has integer literals
only, and no '/'); integer literals are plain ints, and a coefficient
whose omega part cancels, as in omega^3, is stored as one (wpoly).
"""

from __future__ import annotations

import re
from operator import add
from typing import Iterable

from .fields import OMEGA
from .wpoly import WPolynomial

MAX_EXPONENT = 1024
# Deepest nesting of parentheses; each level costs the parser five frames.
MAX_NESTING = 100
# Most term pairs one parse may multiply, counting each squaring step of a
# power: about a second of expansion, so a short text cannot hang the caller.
MAX_TERM_PAIRS = 100_000

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()])")


class ParseError(ValueError):
    """Syntax or name error, with the 0-based text offset where it occurred."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at offset {position}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


def _degrees(poly: WPolynomial) -> list[int]:
    """Highest exponent of each variable in poly; empty for the zero polynomial."""
    return [max(column) for column in zip(*poly.terms)]


class _Parser:
    def __init__(self, tokens, variables, weights):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.weights = weights
        self.pairs = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _product(self, a: WPolynomial, b: WPolynomial, pos: int) -> WPolynomial:
        # Z and Z[omega] have no zero divisors: top degrees add
        top = max(map(add, _degrees(a), _degrees(b)), default=0)
        if top > MAX_EXPONENT:
            raise ParseError(f"exponent {top} exceeds limit {MAX_EXPONENT}", pos)
        self.pairs += len(a.terms) * len(b.terms)
        if self.pairs > MAX_TERM_PAIRS:
            raise ParseError(f"expansion exceeds {MAX_TERM_PAIRS} term products", pos)
        return a * b

    def expr(self) -> WPolynomial:
        out = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.advance()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> WPolynomial:
        out = self.unary()
        while self.peek()[:2] == ("op", "*"):
            pos = self.advance()[2]
            out = self._product(out, self.unary(), pos)
        return out

    def unary(self) -> WPolynomial:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        out = self.power()
        return -out if negate else out

    def power(self) -> WPolynomial:
        base = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            self.advance()
            exponent = int(text)
            top = max(exponent, exponent * max(_degrees(base), default=0))
            if top > MAX_EXPONENT:
                raise ParseError(f"exponent {top} exceeds limit {MAX_EXPONENT}", pos)
            out = WPolynomial.constant(self.variables, self.weights, 1)
            while exponent:  # square and multiply; _product checks each step
                if exponent & 1:
                    out = self._product(out, base, pos)
                exponent >>= 1
                if exponent:
                    base = self._product(base, base, pos)
            base = out
        return base

    def atom(self) -> WPolynomial:
        kind, text, pos = self.peek()
        if kind == "int":
            self.advance()
            return WPolynomial.constant(self.variables, self.weights, int(text))
        if kind == "name":
            self.advance()
            if text == "omega":
                return WPolynomial.constant(self.variables, self.weights, OMEGA)
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", pos)
            return WPolynomial.variable(self.variables, self.weights, text)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, text, pos = self.peek()
            if (kind, text) != ("op", ")"):
                raise ParseError("expected ')'", pos)
            self.advance()
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_polynomial(text: str, variables: Iterable[str], weights: Iterable[int]) -> WPolynomial:
    """Parse ``text`` into expanded normal form over the given variable system.

    Raises ParseError (with position) on syntax errors and unknown names.
    """
    variables = tuple(variables)
    weights = tuple(weights)
    parser = _Parser(_tokenize(text), variables, weights)
    result = parser.expr()
    kind, text_left, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {text_left!r}", pos)
    return result
