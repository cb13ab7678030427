"""Exact integer solution of the trace-formula inequality.

With Frobenius acting by p^2 on the weight-4 classes, by p on the weight-2
part of H^3 (dimension w23), and with eigenvalues of absolute value p^(3/2)
on the weight-3 part (dimension w33), the point count N = #Y(F_p) satisfies

    | (p + p^2) * w23 - A |  <=  w33 * p^(3/2),
    A   = p^3 + (h4_sigma + 1) * p^2 + p + 1 - N,
    w33 = C - 2 * w23,          C = h4_sigma + 4 - chi.

Both sides are squared (valid because w33 >= 0 is enforced first), so
feasibility is a pure integer predicate: no real square roots are ever taken,
and the feasible set is found by scanning w23 over 0..floor(C / 2).  A unique
feasible value pins down w33, h4 = h4_sigma + 1 - w23, and the Mordell-Weil
rank h4 - 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InconclusiveResult
from .fields import is_prime

ASSUMPTION_NOTE = (
    "rank = h4 - 1 assumes the middle degree-4 cohomology is pure of Hodge "
    "type (2,2), i.e. spanned by algebraic classes; that purity is an input "
    "hypothesis of the model, not something this computation verifies."
)


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime >= 7 with p = 1 mod 3, the primes
    the trace-formula model applies to."""
    if not is_prime(p) or p < 7:
        raise ValueError(f"p must be a prime >= 7, got {p}")
    if p % 3 != 1:
        raise ValueError(f"p must be 1 mod 3, got {p}")
    assert p % 6 == 1  # automatic: odd and 1 mod 3


class BettiInputs:
    """(p, N, h4_sigma, chi) feeding the feasibility solve.

    Requires p prime, p >= 7 and p = 1 mod 3 (check_prime), which for p > 3
    forces p = 1 mod 6 (p is odd), the congruence the Frobenius-action
    argument needs.  N is the projective point count and must be positive;
    h4_sigma is a dimension, so it must be nonnegative (chi may be negative).
    """

    __slots__ = ("p", "count", "h4_sigma", "chi")

    def __init__(self, p: int, count: int, h4_sigma: int, chi: int):
        check_prime(p)
        if count <= 0:
            raise ValueError("point count must be positive")
        if h4_sigma < 0:
            raise ValueError(f"h4_sigma must be nonnegative, got {h4_sigma}")
        self.p = p
        self.count = count
        self.h4_sigma = h4_sigma
        self.chi = chi


class BettiResult(NamedTuple):
    feasible_w23: tuple[int, ...]
    w23: int
    w33: int
    h4: int
    rank: int
    assumption_note: str


def feasible_w23(inp: BettiInputs) -> tuple[int, ...]:
    """All integers w in [0, floor(C/2)] satisfying the squared inequality.

    Exact arbitrary-precision arithmetic throughout.  An empty result means
    the inputs are inconsistent with the cohomological model (wrong count or
    wrong h4_sigma / chi).
    """
    p, N = inp.p, inp.count
    A = p**3 + (inp.h4_sigma + 1) * p**2 + p + 1 - N
    C = inp.h4_sigma + 4 - inp.chi
    out = []
    for w in range(0, C // 2 + 1):
        lhs = ((p + p * p) * w - A) ** 2
        rhs = (C - 2 * w) ** 2 * p**3
        if lhs <= rhs:
            out.append(w)
    return tuple(out)


def resolve(inp: BettiInputs) -> BettiResult:
    """Derive (w23, w33, h4, rank) when the feasible set is a single integer.

    Raises InconclusiveResult otherwise, carrying the feasible set.
    """
    feasible = feasible_w23(inp)
    if len(feasible) == 0:
        raise InconclusiveResult(
            "inputs inconsistent with the cohomological model", feasible)
    if len(feasible) > 1:
        raise InconclusiveResult(
            f"inconclusive at this prime: feasible w23 set {list(feasible)}", feasible)
    w23 = feasible[0]
    w33 = inp.h4_sigma + 4 - 2 * w23 - inp.chi
    h4 = inp.h4_sigma + 1 - w23
    rank = h4 - 1
    if w33 < 0 or rank < 0:
        raise InconclusiveResult(
            f"derived invariants out of range (w33={w33}, rank={rank})", feasible)
    return BettiResult(feasible_w23=feasible, w23=w23, w33=w33, h4=h4,
                       rank=rank, assumption_note=ASSUMPTION_NOTE)


def predicted_count(p: int, w23: int, h4: int) -> int:
    """Point count the trace formula predicts when w33 = 0:
    1 + p(1 - w23) + p^2 h4 + p^3.  w23 and h4 are dimensions, so neither
    may be negative."""
    if not is_prime(p) or p % 3 != 1:
        raise ValueError(f"prediction applies to primes p = 1 mod 3, got {p}")
    if w23 < 0 or h4 < 0:
        raise ValueError(f"w23 and h4 must be nonnegative, got w23={w23}, h4={h4}")
    return 1 + p * (1 - w23) + p * p * h4 + p**3
