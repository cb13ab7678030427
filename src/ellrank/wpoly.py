"""Exact sparse multivariate polynomials with per-variable weights.

A WPolynomial maps exponent tuples to exact coefficients:

    terms: dict[tuple[int, ...], int | EisensteinInt]

Zero coefficients are never stored, so identity testing is literal dict
equality and "is this the zero polynomial" is ``not poly.terms``.  Every
variable carries a positive integer weight; the weighted degree of a term is
sum(w_i * e_i), which is what grades the defining equations of hypersurfaces
in weighted projective space.

Coefficients live in the Eisenstein integers Z[omega], stored by one rule
(_stored): a coefficient is a plain int exactly when its omega part is 0,
an EisensteinInt otherwise, so the two mix freely in one polynomial and in
arithmetic.  The constructor checks its input and applies the rule;
arithmetic results, whose exponents are already normal, only go through the
rule.  No floating point and no division enter anywhere.

Canonical printing orders terms by graded-lexicographic order on exponent
tuples (highest first) and emits only grammar tokens (integers, names, omega,
+ - * ^, parentheses), so printing then re-parsing is the identity on
normal forms.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Union

from .fields import EisensteinInt

Coefficient = Union[int, EisensteinInt]
Exponents = tuple[int, ...]


def _stored(terms: Mapping[Exponents, Coefficient]) -> dict[Exponents, Coefficient]:
    """The nonzero terms, each coefficient whose omega part is 0 as an int."""
    return {e: c.a if isinstance(c, EisensteinInt) and not c.b else c
            for e, c in terms.items() if c}


def _normalize_terms(terms: Mapping[Exponents, object], nvars: int) -> dict[Exponents, Coefficient]:
    out: dict[Exponents, Coefficient] = {}
    for exps, coeff in terms.items():
        if not isinstance(coeff, (int, EisensteinInt)):
            raise TypeError(f"coefficients must be exact (int, EisensteinInt), got {type(coeff).__name__}")
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars:
            raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        out[exps] = out[exps] + coeff if exps in out else coeff
    return _stored(out)


class WPolynomial:
    """Weighted multivariate polynomial in normal form; treat as immutable.

    Equal by (variables, weights, terms); unhashable, since terms is a dict.
    """

    __slots__ = ("variables", "weights", "terms")

    def __init__(self, variables: Iterable[str], weights: Iterable[int],
                 terms: Mapping[Exponents, object] | None = None):
        variables = tuple(variables)
        weights = tuple(int(w) for w in weights)
        if len(variables) != len(set(variables)):
            raise ValueError(f"duplicate variable names in {variables}")
        if len(weights) != len(variables):
            raise ValueError("one weight per variable required")
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be positive, got {weights}")
        self.variables = variables
        self.weights = weights
        self.terms = _normalize_terms(terms or {}, len(variables))

    def __eq__(self, other):
        if not isinstance(other, WPolynomial):
            return NotImplemented
        return (self.variables, self.weights, self.terms) == \
            (other.variables, other.weights, other.terms)

    __hash__ = None

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str], weights: Iterable[int]) -> "WPolynomial":
        return cls(tuple(variables), tuple(weights), {})

    @classmethod
    def constant(cls, variables: Iterable[str], weights: Iterable[int], value) -> "WPolynomial":
        variables = tuple(variables)
        return cls(variables, tuple(weights), {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Iterable[str], weights: Iterable[int], name: str) -> "WPolynomial":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, tuple(weights), {tuple(exps): 1})

    # ---- ring structure ---------------------------------------------------

    def _like(self, terms: dict[Exponents, Coefficient]) -> "WPolynomial":
        """A result of this class's own arithmetic, over self's variables:
        its exponents are normal, so only the coefficients are stored anew."""
        out = object.__new__(WPolynomial)
        out.variables, out.weights = self.variables, self.weights
        out.terms = _stored(terms)
        return out

    def _check_compatible(self, other: "WPolynomial"):
        if self.variables != other.variables or self.weights != other.weights:
            raise ValueError("polynomials live over different variable systems")

    def __add__(self, other):
        if isinstance(other, WPolynomial):
            self._check_compatible(other)
            out = dict(self.terms)
            for e, c in other.terms.items():
                out[e] = out[e] + c if e in out else c
            return self._like(out)
        if isinstance(other, (int, EisensteinInt)):
            return self + WPolynomial.constant(self.variables, self.weights, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, WPolynomial):
            self._check_compatible(other)
            out: dict[Exponents, Coefficient] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    c = ca * cb
                    out[e] = out[e] + c if e in out else c
            return self._like(out)
        if isinstance(other, (int, EisensteinInt)):
            return self._like({e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---- structure queries ------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def term_weighted_degree(self, exps: Exponents) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def weighted_degree(self) -> int | None:
        """Maximum weighted degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.term_weighted_degree(e) for e in self.terms)

    def is_weighted_homogeneous(self) -> bool:
        degrees = {self.term_weighted_degree(e) for e in self.terms}
        return len(degrees) <= 1

    def has_eisenstein_coefficients(self) -> bool:
        """Whether an omega part survives in some coefficient."""
        return any(isinstance(c, EisensteinInt) for c in self.terms.values())

    # ---- calculus and specialization --------------------------------------

    def partial_derivative(self, name: str) -> "WPolynomial":
        """Formal partial derivative; drops weighted degree by the variable's
        weight on homogeneous input."""
        i = self.variables.index(name)
        out: dict[Exponents, Coefficient] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            lowered = exps[:i] + (e - 1,) + exps[i + 1:]
            c = coeff * e
            out[lowered] = out[lowered] + c if lowered in out else c
        return self._like(out)

    def restrict(self, keep: Iterable[int]) -> "WPolynomial":
        """Set every variable outside ``keep`` to zero and project onto the
        kept variables (order preserved)."""
        keep = set(keep)
        return self.specialize({i: 0 for i in range(self.nvars) if i not in keep})

    def specialize(self, values: Mapping[int, int]) -> "WPolynomial":
        """Substitute the integer values[i] for variable i and project onto the
        remaining variables (order preserved).  Coefficients stay exact."""
        keep = [i for i in range(self.nvars) if i not in values]
        out: dict[Exponents, Coefficient] = {}
        for exps, coeff in self.terms.items():
            for i, v in values.items():
                coeff = coeff * v ** exps[i]
            reduced = tuple(exps[i] for i in keep)
            out[reduced] = out[reduced] + coeff if reduced in out else coeff
        return WPolynomial(tuple(self.variables[i] for i in keep),
                           tuple(self.weights[i] for i in keep), out)

    # ---- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            negative, body = _format_term(self.variables, exps, coeff)
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"WPolynomial({str(self)!r}, vars={self.variables}, weights={self.weights})"


def _format_coeff_eisenstein(c: EisensteinInt) -> tuple[bool, str]:
    """(negative, body) for an Eisenstein coefficient, body in grammar tokens."""
    a, b = c.a, c.b
    if a == 0:
        body = "omega" if abs(b) == 1 else f"{abs(b)}*omega"
        return b < 0, body
    inner_b = "omega" if abs(b) == 1 else f"{abs(b)}*omega"
    sign_b = "+" if b > 0 else "-"
    return False, f"({a} {sign_b} {inner_b})"


def _format_term(variables: tuple[str, ...], exps: Exponents, coeff: Coefficient) -> tuple[bool, str]:
    mono = "*".join(f"{v}^{e}" if e > 1 else v
                    for v, e in zip(variables, exps) if e)
    if isinstance(coeff, EisensteinInt):
        negative, cbody = _format_coeff_eisenstein(coeff)
    else:
        negative, cbody = coeff < 0, str(abs(coeff))
    if not mono:
        return negative, cbody
    if cbody == "1":
        return negative, mono
    return negative, f"{cbody}*{mono}"


def euler_combination(poly: WPolynomial) -> WPolynomial:
    """sum_i w_i * x_i * df/dx_i, the left side of the weighted Euler identity."""
    out = WPolynomial.zero(poly.variables, poly.weights)
    for name, w in zip(poly.variables, poly.weights):
        out = out + WPolynomial.variable(poly.variables, poly.weights, name) \
            * poly.partial_derivative(name) * w
    return out


def support_gcd(weights: Iterable[int], exps_or_point: Iterable[int]) -> int:
    """gcd of the weights on the support of a point (0 for the zero point)."""
    d = 0
    for w, v in zip(weights, exps_or_point):
        if v:
            d = gcd(d, w)
    return d
