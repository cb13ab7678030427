"""Acceptance suite: the headline results, exact and timed.

Each test covers one acceptance criterion and prints one PASS line on success
(run with `pytest -s tests/test_acceptance.py` to see them); a failed
assertion is the FAIL signal.  Every tolerance is exact equality; the only
non-exact limits are the two wall-clock bounds stated inline.
"""

import random
import time

from ellrank.betti import BettiInputs, feasible_w23, predicted_count
from ellrank.counting import count_projective
from ellrank.curves import (defining_polynomial, fermat_member, local_surface_normalized,
                            local_surface_split)
from ellrank.fields import make_field
from ellrank.hodge import (GradedRingSpec, builtin_cohomology_inputs,
                           hodge_h3_smooth, jacobian_ring_dim,
                           milnor_quasihomogeneous)
from ellrank.sections import (SectionPoint, builtin_sections, section_records,
                              verify_section)
from ellrank.singular import euler_check, expected_singularities, singular_points
from ellrank.wpoly import WPolynomial
from helpers import (random_homogeneous, random_weierstrass, rational_orbit_count, run_cli,
                     strip_timing)

PRIMES = (7, 13, 19, 31)
CURVE = defining_polynomial()


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}", flush=True)


def test_criterion_1_headline_count():
    started = time.perf_counter()
    code, doc, _ = run_cli(["count", "--prime", "7"])
    elapsed = time.perf_counter() - started
    assert code == 0
    by_method = doc["counts"]["by_method"]
    assert set(by_method) == {"naive", "burnside", "weierstrass-fast"}
    for name, block in by_method.items():
        assert block["projective"] == 610, name
    assert doc["counts"]["projective"] == 610
    assert elapsed < 1.0, f"count --prime 7 took {elapsed:.2f}s"
    _ok(1, f"#Y(F_7) = 610 by all three methods in {elapsed:.2f}s")


def test_criterion_2_headline_rank():
    code, doc, _ = run_cli(["rank", "--prime", "7"])
    assert code == 0
    betti = doc["betti"]
    assert betti["w23"] == 12
    assert betti["w33"] == 0
    assert betti["h4"] == 7
    assert betti["rank"] == 6
    _ok(2, "rank pipeline gives w23=12, w33=0, h4=7, rank=6")


def test_criterion_3_counts_match_prediction_at_all_primes():
    started = time.perf_counter()
    for p in PRIMES:
        field = make_field(p)
        report = count_projective(field, CURVE, method="weierstrass-fast")
        expected = predicted_count(p, 12, 7)
        assert expected == p**3 + 7 * p**2 - 11 * p + 1
        assert report.projective_count == expected, p
        assert feasible_w23(BettiInputs(p=p, count=report.projective_count,
                                        h4_sigma=18, chi=-2)) == (12,), p
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"fast counts took {elapsed:.2f}s"
    _ok(3, f"counts at p in {PRIMES} equal p^3+7p^2-11p+1 with unique w23=12 "
           f"({elapsed:.2f}s)")


def test_criterion_4_singular_locus_at_all_primes():
    for p in PRIMES:
        field = make_field(p)
        expected = expected_singularities(field)
        report = singular_points(field, CURVE)
        assert len(report.points) == 9, p
        assert set(report.points) == set(expected), p
    _ok(4, f"exactly 9 singular points matching the cube-root list at p in {PRIMES}")


def test_criterion_5_local_surface_counts():
    for p in PRIMES:
        field = make_field(p)
        expected = p * p + 3 * p + 1
        split, normalized = (
            count_projective(field, surface, method="burnside").projective_count
            for surface in (local_surface_split(), local_surface_normalized()))
        assert split == expected, p
        assert normalized == expected, p
    _ok(5, f"both local surfaces count q^2+3q+1 points at q in {PRIMES}")


def test_criterion_6_hodge_inputs():
    surface = GradedRingSpec(poly=local_surface_normalized())
    assert jacobian_ring_dim(surface, 2) == 2
    inputs = builtin_cohomology_inputs()
    assert inputs.h2_surface == 3
    assert inputs.h4_sigma == 18
    assert hodge_h3_smooth(GradedRingSpec(fermat_member(6, (2, 3, 1, 1, 1)))) == 42
    assert milnor_quasihomogeneous(6, (2, 3, 2, 3)) == 4
    assert inputs.chi == -2
    _ok(6, "jacobian dim 2 (h2(S)=3, h4_Sigma=18), h3=42, mu=4, chi=-2")


def test_criterion_7_method_agreement_property_suite():
    rng = random.Random(60606)
    fields = {7: make_field(7), 13: make_field(13)}
    agreements = 0
    # general weighted-homogeneous family: naive vs burnside
    while agreements < 14:
        p = rng.choice((7, 13))
        nvars = rng.randint(3, 5 if p == 7 else 4)
        weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nvars))
        f = random_homogeneous(rng, nvars, weights, rng.randint(2, 6))
        if f is None or not f.terms:
            continue
        assert euler_check(f) is True
        naive = count_projective(fields[p], f, method="naive")
        burnside = count_projective(fields[p], f, method="burnside")
        assert naive.cone_count == burnside.cone_count
        assert naive.projective_count == burnside.projective_count
        rational_orbit_count(fields[p], f)  # asserts divisibility by p-1
        agreements += 1
    # Weierstrass-shaped family: all three methods
    for _ in range(6):
        p = rng.choice((7, 13))
        f = random_weierstrass(rng, rng.randint(1, 2))
        assert euler_check(f) is True
        counts = {m: count_projective(fields[p], f, method=m).projective_count
                  for m in ("naive", "burnside", "weierstrass-fast")}
        assert len(set(counts.values())) == 1, (p, counts)
        agreements += 1
    assert agreements >= 20
    _ok(7, f"naive/burnside/fast agree on {agreements} random homogeneous polynomials")


def test_criterion_8_sections():
    sections = builtin_sections()
    assert len(sections) == 6
    zero = WPolynomial.zero(("s", "t"), (1, 1))
    for s in sections:
        assert verify_section(s) == zero, s.label

    def eis(text):
        from ellrank.parsing import parse_polynomial
        return parse_polynomial(text, ("s", "t"), (1, 1))

    # the sign-flipped x candidates fail with the oracle-computed residuals
    p1_flipped = SectionPoint("P1-", eis("-4*s"), eis("4*(t^3 - s^3 - 1)"))
    assert verify_section(p1_flipped) == eis("128*s^3")
    p3_flipped = SectionPoint("P3-", eis("-4*t*s"), eis("4*(1 - s^3 - t^3)"))
    assert verify_section(p3_flipped) == eis("128*t^3*s^3")

    for record in section_records():
        assert record["verified"] is True
        assert "rejected" in record["sign_choice"]

    # omega-twist invariance of residuals, identically in the point
    rng = random.Random(8)
    for _ in range(5):
        x = random_homogeneous(rng, 2, (1, 1), rng.randint(1, 2), names=("s", "t"))
        y = random_homogeneous(rng, 2, (1, 1), rng.randint(1, 3), names=("s", "t"))
        if x is None or y is None:
            continue
        pt = SectionPoint("r", x, y)
        base = verify_section(pt)
        from ellrank.sections import omega_twist
        assert verify_section(omega_twist(pt, 1)) == base
        assert verify_section(omega_twist(pt, 2)) == base
    _ok(8, "6 sections verify; flipped signs leave residuals 128*s^3 and "
           "128*t^3*s^3; twist invariance holds")


def test_criterion_9_determinism_across_threads():
    commands = [
        ["count", "--prime", "7"],
        ["rank", "--prime", "7"],
        ["count", "--prime", "13", "--method", "weierstrass-fast"],
        ["count", "--prime", "19", "--method", "weierstrass-fast"],
        ["count", "--prime", "31", "--method", "weierstrass-fast"],
        ["singular", "--prime", "7"],
        ["singular", "--prime", "13"],
        ["singular", "--prime", "19"],
        ["singular", "--prime", "31"],
        ["count", "--prime", "7", "--method", "burnside",
         "--curve", "t1*y + x^3 - s1^3", "--vars", "x,y,s1,t1",
         "--weights", "2,3,2,3"],
        ["count", "--prime", "31", "--method", "burnside",
         "--curve=-y^2 + x^3 - s1^3 + t1^2", "--vars", "x,y,s1,t1",
         "--weights", "2,3,2,3"],
    ]
    for command in commands:
        code1, _, raw1 = run_cli(command + ["--threads", "1"])
        code8, _, raw8 = run_cli(command + ["--threads", "8"])
        assert code1 == code8 == 0, command
        assert strip_timing(raw1) == strip_timing(raw8), command
    _ok(9, f"{len(commands)} commands byte-identical at 1 and 8 threads "
           f"(timing excluded)")
