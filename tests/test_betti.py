import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from ellrank import betti
from ellrank.betti import (ASSUMPTION_NOTE, BettiInputs, feasible_w23,
                           predicted_count, resolve)
from ellrank.errors import InconclusiveResult


# ---- exact arithmetic in Q(sqrt p) for the closed-form oracle ---------------

@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(p) with rational a, b; exact comparisons via sign analysis."""

    a: Fraction
    b: Fraction
    p: int

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # a and b have opposite signs: compare a^2 with b^2 p
        lead = (abs(a) * abs(a) > abs(b) * abs(b) * self.p)
        return (1 if a > 0 else -1) if lead else (1 if b > 0 else -1)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.a - other.a, self.b - other.b, self.p)

    def __le__(self, other: "QuadExt") -> bool:
        return (self - other)._sign() <= 0

    def divide(self, other: "QuadExt") -> "QuadExt":
        # multiply by the conjugate: (a+b√p)(c-d√p) / (c^2 - d^2 p)
        c, d = other.a, other.b
        denom = c * c - d * d * self.p
        if denom == 0:
            raise ZeroDivisionError
        return QuadExt((self.a * c - self.b * d * self.p) / denom,
                       (self.b * c - self.a * d) / denom, self.p)


def q(a, b, p) -> QuadExt:
    return QuadExt(Fraction(a), Fraction(b), p)


def closed_form_feasible(inp: BettiInputs) -> tuple[int, ...]:
    """Integers in [ (A - C p^{3/2}) / (p^2 - 2p^{3/2} + p),
                     (A + C p^{3/2}) / (p^2 + 2p^{3/2} + p) ]
    intersected with [0, C//2], evaluated exactly in Q(sqrt p)."""
    p = inp.p
    A = p**3 + (inp.h4_sigma + 1) * p**2 + p + 1 - inp.count
    C = inp.h4_sigma + 4 - inp.chi
    # p^{3/2} = p * sqrt(p)
    lower = q(A, -C * p, p).divide(q(p * p + p, -2 * p, p))
    upper = q(A, C * p, p).divide(q(p * p + p, 2 * p, p))
    out = []
    for w in range(0, C // 2 + 1):
        wq = q(w, 0, p)
        if lower <= wq and wq <= upper:
            out.append(w)
    return tuple(out)


def test_quadext_sign():
    assert q(1, 1, 7)._sign() == 1
    assert q(-1, -1, 7)._sign() == -1
    assert q(3, -1, 7)._sign() == 1    # 9 > 7
    assert q(2, -1, 7)._sign() == -1   # 4 < 7
    assert q(-3, 1, 7)._sign() == -1
    assert q(-2, 1, 7)._sign() == 1
    assert q(0, 0, 7)._sign() == 0


# ---- feasibility ------------------------------------------------------------

def test_headline_instance_unique_twelve():
    assert feasible_w23(BettiInputs(p=7, count=610, h4_sigma=18, chi=-2)) == (12,)


def test_perturbed_count_infeasible():
    # one point over the tight instance misses every band
    assert feasible_w23(BettiInputs(p=7, count=611, h4_sigma=18, chi=-2)) == ()
    assert feasible_w23(BettiInputs(p=7, count=609, h4_sigma=18, chi=-2)) == ()


def test_large_perturbation_lands_in_wider_bands():
    # +100 re-enters the bands at smaller w (checked by direct integer
    # evaluation: e.g. w=8 gives |448 - 572| = 124 <= 8 * 7^(3/2))
    assert feasible_w23(BettiInputs(p=7, count=710, h4_sigma=18, chi=-2)) == (7, 8, 9, 10)


def test_f13_instance():
    assert feasible_w23(BettiInputs(p=13, count=3238, h4_sigma=18, chi=-2)) == (12,)


def test_inputs_validation():
    with pytest.raises(ValueError):
        BettiInputs(p=5, count=100, h4_sigma=18, chi=-2)   # 5 != 1 mod 3
    with pytest.raises(ValueError):
        BettiInputs(p=9, count=100, h4_sigma=18, chi=-2)   # not prime
    with pytest.raises(ValueError):
        BettiInputs(p=7, count=0, h4_sigma=18, chi=-2)


def test_resolve_headline_instance():
    result = resolve(BettiInputs(p=7, count=610, h4_sigma=18, chi=-2))
    assert result.w23 == 12
    assert result.w33 == 18 + 4 + 2 - 24 == 0
    assert result.h4 == 7
    assert result.rank == 6
    assert result.feasible_w23 == (12,)
    assert result.assumption_note == ASSUMPTION_NOTE


def test_resolve_empty_set_is_inconsistent():
    with pytest.raises(InconclusiveResult, match="inconsistent"):
        resolve(BettiInputs(p=7, count=611, h4_sigma=18, chi=-2))


def test_resolve_multiple_feasible_is_inconclusive():
    # shifting N by p + p^2 from the tight instance widens the band
    inp = BettiInputs(p=7, count=610 + 56, h4_sigma=18, chi=-2)
    feasible = feasible_w23(inp)
    assert len(feasible) > 1
    with pytest.raises(InconclusiveResult, match="inconclusive") as excinfo:
        resolve(inp)
    assert excinfo.value.feasible == feasible


def test_predicted_count_examples():
    assert predicted_count(7, 12, 7) == 610
    assert predicted_count(13, 12, 7) == 3238
    assert predicted_count(19, 12, 7) == 9178
    with pytest.raises(ValueError):
        predicted_count(11, 12, 7)


@pytest.mark.parametrize("w23,h4", [(-3, 7), (12, -1)])
def test_predicted_count_refuses_negative_dimensions(w23, h4):
    with pytest.raises(ValueError, match="must be nonnegative"):
        predicted_count(7, w23, h4)


def test_inputs_refuse_a_negative_h4_sigma():
    with pytest.raises(ValueError, match="h4_sigma must be nonnegative"):
        BettiInputs(p=7, count=610, h4_sigma=-1, chi=-2)
    # chi is an Euler characteristic and may be negative; h4_sigma = 0 is allowed
    assert BettiInputs(p=7, count=610, h4_sigma=0, chi=-30).h4_sigma == 0


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_round_trip_prediction(p):
    n = predicted_count(p, 12, 7)
    assert feasible_w23(BettiInputs(p=p, count=n, h4_sigma=18, chi=-2)) == (12,)


def test_closed_form_equivalence():
    cases = [
        BettiInputs(p=7, count=610, h4_sigma=18, chi=-2),
        BettiInputs(p=7, count=611, h4_sigma=18, chi=-2),
        BettiInputs(p=7, count=666, h4_sigma=18, chi=-2),
        BettiInputs(p=13, count=3238, h4_sigma=18, chi=-2),
        BettiInputs(p=13, count=3300, h4_sigma=18, chi=-2),
        BettiInputs(p=19, count=9178, h4_sigma=18, chi=-2),
        BettiInputs(p=31, count=36178, h4_sigma=18, chi=-2),
        BettiInputs(p=7, count=400, h4_sigma=10, chi=0),
        BettiInputs(p=13, count=2500, h4_sigma=12, chi=-4),
    ]
    for inp in cases:
        assert feasible_w23(inp) == closed_form_feasible(inp), inp


def test_monotone_shift():
    # adding p + p^2 to the count moves every feasible w (>= 1) down by one
    for inp in [BettiInputs(p=7, count=610, h4_sigma=18, chi=-2),
                BettiInputs(p=7, count=666, h4_sigma=18, chi=-2),
                BettiInputs(p=13, count=3238, h4_sigma=18, chi=-2)]:
        shifted = BettiInputs(p=inp.p, count=inp.count + inp.p + inp.p**2,
                              h4_sigma=inp.h4_sigma, chi=inp.chi)
        before = feasible_w23(inp)
        after = feasible_w23(shifted)
        for w in before:
            if w >= 1:
                assert w - 1 in after


def scanned_feasible(inp: BettiInputs) -> tuple[int, ...]:
    """The squared inequality tried at every w in 0..floor(C/2)."""
    p = inp.p
    A = p**3 + (inp.h4_sigma + 1) * p**2 + p + 1 - inp.count
    C = inp.h4_sigma + 4 - inp.chi
    return tuple(w for w in range(C // 2 + 1)
                 if ((p + p * p) * w - A) ** 2 <= (C - 2 * w) ** 2 * p**3)


def test_interval_ends_match_the_scan():
    # around the built-in instance, across the bands' edges, at negative C
    # and with an empty discriminant
    for p in (7, 13, 19, 31, 37, 43):
        base = p**3 + 19 * p**2 + p + 1
        for h4_sigma, chi in [(18, -2), (0, 0), (5, 40), (40, -30), (250, -250)]:
            for count in range(max(1, base - 30 * p * p), base + 30 * p * p, p + 3):
                inp = BettiInputs(p=p, count=count, h4_sigma=h4_sigma, chi=chi)
                assert feasible_w23(inp) == scanned_feasible(inp), (p, count, h4_sigma, chi)


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parent.glob("golden/rank_p*.json")),
                         ids=lambda path: path.stem)
def test_builtin_feasible_set_at_the_golden_primes(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    inp = BettiInputs(p=report["prime"], count=report["counts"]["projective"],
                      h4_sigma=18, chi=-2)
    assert feasible_w23(inp) == (12,)


# chi = -4000 at p = 7: the set is 0..807, 808 values
_WIDE = BettiInputs(p=7, count=610, h4_sigma=18, chi=-4000)


def test_feasible_set_at_the_limit_is_returned(monkeypatch):
    wide = scanned_feasible(_WIDE)
    assert wide == tuple(range(808))
    monkeypatch.setattr(betti, "MAX_FEASIBLE_W23", 808)
    assert feasible_w23(_WIDE) == wide


def test_feasible_set_beyond_the_limit_is_refused(monkeypatch):
    monkeypatch.setattr(betti, "MAX_FEASIBLE_W23", 807)
    with pytest.raises(ValueError, match="has 808 values, more than the 807 a solve"):
        feasible_w23(_WIDE)


def test_huge_inputs_are_solved_without_a_scan():
    # a scan would try 5 * 10^10, 5 * 10^7 and 10^40 candidates
    assert feasible_w23(BettiInputs(p=13, count=3238, h4_sigma=10**11, chi=-2)) == ()
    with pytest.raises(ValueError, match="has 16998427 values, more than the 10000"):
        feasible_w23(BettiInputs(p=13, count=3238, h4_sigma=18, chi=-10**8))
    with pytest.raises(ValueError, match="more than the 10000"):
        feasible_w23(BettiInputs(p=13, count=3238, h4_sigma=10**40, chi=-10**40))
