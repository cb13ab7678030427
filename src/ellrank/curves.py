"""Built-in hypersurfaces: the elliptic threefold and its local surfaces.

The main object is the degree-6 hypersurface Y in P(2,3,1,1,1), coordinates
(x, y, z0, z1, z2):

    y^2 = x^3 + 16*(z0^6 + z1^6 + z2^6 - 2*(z0^3 z1^3 + z1^3 z2^3 + z0^3 z2^3))

Each of its nine singular points is locally described (after normalization of
the binomial coefficients) by the degree-6 surface in P(2,3,2,3)

    -y^2 + x^3 - s1^3 + t1^2 = 0,

which is isomorphic to t1*y + x^3 - s1^3 = 0 because t1^2 - y^2 splits.  The
unnormalized local form at the i-th singular point is
-y^2 + x^3 - 64 s^3 + 144 omega^i t^2; rescaling s1 and t1 turns it into the
normalized form, which all dimension computations use.

Each built-in polynomial is built from a table of its terms (exponent tuple
to coefficient), so no command parses text to reach it.  The text beside
each table documents it, and the test suite keeps the two equal by parsing
the text.
"""

from __future__ import annotations

from .wpoly import WPolynomial

THREEFOLD_VARIABLES = ("x", "y", "z0", "z1", "z2")
THREEFOLD_WEIGHTS = (2, 3, 1, 1, 1)

SEXTIC_TEXT = "16*(z0^6 + z1^6 + z2^6 - 2*(z0^3*z1^3 + z1^3*z2^3 + z0^3*z2^3))"
SEXTIC_TERMS = {(6, 0, 0): 16, (0, 6, 0): 16, (0, 0, 6): 16,
                (3, 3, 0): -32, (0, 3, 3): -32, (3, 0, 3): -32}
DEFINING_TEXT = f"y^2 - x^3 - {SEXTIC_TEXT}"
DEFINING_TERMS = {(0, 2, 0, 0, 0): 1, (3, 0, 0, 0, 0): -1,
                  **{(0, 0) + exps: -c for exps, c in SEXTIC_TERMS.items()}}

SURFACE_VARIABLES = ("x", "y", "s1", "t1")
SURFACE_WEIGHTS = (2, 3, 2, 3)

SURFACE_NORMALIZED_TEXT = "-y^2 + x^3 - s1^3 + t1^2"
SURFACE_NORMALIZED_TERMS = {(0, 2, 0, 0): -1, (3, 0, 0, 0): 1,
                            (0, 0, 3, 0): -1, (0, 0, 0, 2): 1}
SURFACE_SPLIT_TEXT = "t1*y + x^3 - s1^3"
SURFACE_SPLIT_TERMS = {(0, 1, 0, 1): 1, (3, 0, 0, 0): 1, (0, 0, 3, 0): -1}


def defining_polynomial() -> WPolynomial:
    """The threefold's defining polynomial F with F = 0 cutting out Y."""
    return WPolynomial(THREEFOLD_VARIABLES, THREEFOLD_WEIGHTS, DEFINING_TERMS)


def sextic_base() -> WPolynomial:
    """16*(z0^6 + ... ) in (z0, z1, z2) alone: the Weierstrass fiber term."""
    return WPolynomial(THREEFOLD_VARIABLES[2:], THREEFOLD_WEIGHTS[2:], SEXTIC_TERMS)


def local_surface_normalized() -> WPolynomial:
    """-y^2 + x^3 - s1^3 + t1^2 in P(2,3,2,3)."""
    return WPolynomial(SURFACE_VARIABLES, SURFACE_WEIGHTS, SURFACE_NORMALIZED_TERMS)


def local_surface_split() -> WPolynomial:
    """t1*y + x^3 - s1^3, the split form of the local surface."""
    return WPolynomial(SURFACE_VARIABLES, SURFACE_WEIGHTS, SURFACE_SPLIT_TERMS)


def fermat_member(degree: int, weights: tuple[int, ...],
                  variables: tuple[str, ...] | None = None) -> WPolynomial:
    """Diagonal member sum_i x_i^(d/w_i) of the given degree and weights.

    Quasi-smooth whenever it exists (partials generate a monomial ideal),
    which makes it the canonical representative for graded dimension counts.
    """
    if variables is None:
        variables = tuple(f"v{i}" for i in range(len(weights)))
    if len(variables) != len(weights):
        raise ValueError("one variable per weight required")
    terms = {}
    for i, w in enumerate(weights):
        if degree % w != 0:
            raise ValueError(
                f"no diagonal member: weight {w} does not divide degree {degree}")
        exps = [0] * len(weights)
        exps[i] = degree // w
        terms[tuple(exps)] = 1
    return WPolynomial(tuple(variables), tuple(weights), terms)
