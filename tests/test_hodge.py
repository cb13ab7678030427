import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from ellrank import hodge
from ellrank.curves import fermat_member, local_surface_normalized
from ellrank.hodge import (CohomologyInputs, GradedRingSpec,
                           builtin_cohomology_inputs, chi_singular,
                           h4_sigma_total, hodge_h3_smooth, jacobian_ring_dim,
                           milnor_quasihomogeneous, monomials_of_weighted_degree,
                           quasi_smooth_spot_check, sparse_rank)
from ellrank.parsing import parse_polynomial
from ellrank.wpoly import WPolynomial
from helpers import _fraction_rank

SURFACE = GradedRingSpec(poly=local_surface_normalized())
FERMAT = GradedRingSpec(fermat_member(6, (2, 3, 1, 1, 1), ("x", "y", "z0", "z1", "z2")))
# A non-diagonal quasi-smooth sextic in P(2,3,1,1,1): a second source for h^3
NON_DIAGONAL = parse_polynomial(
    "x^3 + y^2 + z0^6 + z1^6 + z2^6 + 3*z0^2*z1^2*z2^2 - 5*z0*z1^5 + 7*x*z2^4",
    ("x", "y", "z0", "z1", "z2"), (2, 3, 1, 1, 1))


def _random_integer_matrix(rng: random.Random) -> list[list[int]]:
    """Small integer matrix, possibly empty, often with zero and repeated rows."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
            for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.3:
        rows.append([0] * ncols)
    rng.shuffle(rows)
    return rows


def test_sparse_rank_matches_dense_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        rows = _random_integer_matrix(rng)
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        dense = [[Fraction(v) for v in row] for row in rows]
        assert sparse_rank(sparse) == _fraction_rank(dense), rows


def test_monomial_enumeration():
    # weights (2,3): degree 6 monomials are x^3, y^2
    assert set(monomials_of_weighted_degree((2, 3), 6)) == {(3, 0), (0, 2)}
    assert monomials_of_weighted_degree((2, 3), -1) == []
    assert monomials_of_weighted_degree((2, 3), 0) == [(0, 0)]
    assert monomials_of_weighted_degree((2, 3), 1) == []


@pytest.mark.parametrize("weights", [(1,), (2, 3), (2, 3, 2, 3), (2, 3, 1, 1, 1), (4, 6, 3)])
def test_monomial_enumeration_is_complete_and_lexicographic(weights):
    # every monomial of degree k > 0 is x_i times one of degree k - w_i
    for k in range(1, 20):
        monomials = monomials_of_weighted_degree(weights, k)
        assert monomials == sorted(set(monomials))
        raised = {m[:i] + (m[i] + 1,) + m[i + 1:]
                  for i, w in enumerate(weights)
                  for m in monomials_of_weighted_degree(weights, k - w)}
        assert set(monomials) == raised


def test_local_surface_degree_two_piece():
    # Jacobian ideal (x^2, y, s1^2, t1): the quotient in degree 2 is <x, s1>
    assert jacobian_ring_dim(SURFACE, 2) == 2


def test_local_surface_symmetric_dimensions():
    assert jacobian_ring_dim(SURFACE, 0) == 1
    assert jacobian_ring_dim(SURFACE, 4) == 1
    assert jacobian_ring_dim(SURFACE, 2) == 2
    assert jacobian_ring_dim(SURFACE, 1) == 0
    assert jacobian_ring_dim(SURFACE, 3) == 0
    assert jacobian_ring_dim(SURFACE, 6) == 0


def test_fermat_threefold_graded_pieces():
    assert jacobian_ring_dim(FERMAT, 4) == 21
    assert jacobian_ring_dim(FERMAT, 10) == 21
    assert jacobian_ring_dim(FERMAT, 16) == 0
    assert jacobian_ring_dim(FERMAT, 0) == 1
    assert jacobian_ring_dim(FERMAT, -2) == 0


def test_jacobian_dim_degree_zero_always_one():
    for spec in (SURFACE, FERMAT):
        assert jacobian_ring_dim(spec, 0) == 1


def test_jacobian_dim_independent_of_variable_order():
    # permuting the variable system permutes the monomial basis; the graded
    # dimension must not change
    base = parse_polynomial("-y^2 + x^3 - s1^3 + t1^2",
                            ("x", "y", "s1", "t1"), (2, 3, 2, 3))
    permuted = parse_polynomial("-y^2 + x^3 - s1^3 + t1^2",
                                ("t1", "s1", "y", "x"), (3, 2, 3, 2))
    for k in range(0, 6):
        assert jacobian_ring_dim(GradedRingSpec(poly=base), k) == \
            jacobian_ring_dim(GradedRingSpec(poly=permuted), k)


def test_jacobian_dim_non_monomial_ideal():
    # partials of x^3 + y^3 + z^3 - 3xyz are not monomials, so the rank comes
    # from genuine elimination rather than distinct-monomial rows; check its
    # basis invariance
    f = parse_polynomial("x^3 + y^3 + z^3 - 3*x*y*z", ("x", "y", "z"), (1, 1, 1))
    g = parse_polynomial("x^3 + y^3 + z^3 - 3*x*y*z", ("z", "x", "y"), (1, 1, 1))
    for k in range(0, 5):
        dim_f = jacobian_ring_dim(GradedRingSpec(poly=f), k)
        dim_g = jacobian_ring_dim(GradedRingSpec(poly=g), k)
        assert dim_f == dim_g
    # degree 1: relations 3x^2 - 3yz etc. live in degree 2, so all of x, y, z survive
    assert jacobian_ring_dim(GradedRingSpec(poly=f), 1) == 3


def test_h3_smooth_is_42():
    assert hodge_h3_smooth(FERMAT) == 42


def test_h3_of_non_diagonal_member_is_42():
    # second source for h^3: a non-diagonal quasi-smooth member agrees with
    # the Fermat member piece by piece
    spec = GradedRingSpec(poly=NON_DIAGONAL)
    assert quasi_smooth_spot_check(spec) is True
    assert [jacobian_ring_dim(spec, k) for k in (-2, 4, 10, 16)] == [0, 21, 21, 0]
    assert hodge_h3_smooth(spec) == 42


def test_integer_multiple_has_the_same_pieces():
    # the partials of c * F span the same ideal as those of F
    for scale in (2520, -7):
        multiple = NON_DIAGONAL * scale
        for k in (0, 2, 4, 6, 10, 16):
            assert jacobian_ring_dim(GradedRingSpec(poly=NON_DIAGONAL), k) == \
                jacobian_ring_dim(GradedRingSpec(poly=multiple), k)
    with pytest.raises(TypeError):
        NON_DIAGONAL * Fraction(1, 2520)


def test_h3_of_7_times_fermat_is_42():
    # a content divisible by the spot-check prime is divided away before the
    # partials are reduced mod that prime
    spec = GradedRingSpec(poly=fermat_member(6, (2, 3, 1, 1, 1)) * 7)
    assert quasi_smooth_spot_check(spec) is True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hodge_h3_smooth(spec) == 42


@pytest.mark.parametrize("spec", [
    FERMAT,
    GradedRingSpec(poly=NON_DIAGONAL),
    GradedRingSpec(poly=fermat_member(6, (2, 3, 1, 1, 1)) * 7),
    SURFACE,
], ids=["fermat", "non-diagonal", "7-times-fermat", "local-surface"])
def test_jacobian_ring_is_gorenstein(spec):
    # the identity hodge_h3_smooth relies on, both sides by elimination:
    # dim R_k = dim R_(s-k) for s = sum(d - 2 w_i), with a one-dimensional
    # socle R_s
    s = sum(spec.degree - 2 * w for w in spec.weights)
    assert s == (14 if spec.poly.nvars == 5 else 4)
    dims = [jacobian_ring_dim(spec, k) for k in range(s + 1)]
    assert dims == dims[::-1] and dims[s] == 1


def test_h3_builds_only_the_pieces_of_q_0_and_1(monkeypatch):
    # R_10 and R_16 are the duals of R_4 and R_-2 and are never built
    asked = []

    def spy(spec, k):
        asked.append(k)
        return jacobian_ring_dim(spec, k)

    monkeypatch.setattr(hodge, "jacobian_ring_dim", spy)
    assert hodge_h3_smooth(FERMAT) == 42
    assert sorted(asked) == [-2, 4]


def test_builtin_inputs_hold_almost_no_heap():
    # the largest piece built is R_4 (25 columns); building R_16 (1089
    # columns) would take about 0.8 MB of traced heap
    tracemalloc.start()
    try:
        builtin_cohomology_inputs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_h3_requires_five_variables():
    with pytest.raises(ValueError, match="threefold"):
        hodge_h3_smooth(SURFACE)


def test_quasi_smooth_spot_check():
    assert quasi_smooth_spot_check(FERMAT) is True
    # z1^3 z2^3 in place of z2^6 leaves a whole critical line (z2 free)
    bad = parse_polynomial("x^3 + y^2 + z0^6 + z1^6 + z1^3*z2^3",
                           ("x", "y", "z0", "z1", "z2"), (2, 3, 1, 1, 1))
    spec = GradedRingSpec(poly=bad)
    assert quasi_smooth_spot_check(spec) is False
    with pytest.warns(UserWarning, match="quasi-smooth"):
        hodge_h3_smooth(spec)


def test_milnor_examples():
    assert milnor_quasihomogeneous(6, (2, 3, 2, 3)) == 4
    assert milnor_quasihomogeneous(2, (1, 1, 1)) == 1
    assert milnor_quasihomogeneous(6, (2, 2, 3)) == 4


def test_milnor_symmetry():
    assert milnor_quasihomogeneous(6, (3, 2, 3, 2)) == \
        milnor_quasihomogeneous(6, (2, 3, 2, 3))
    assert milnor_quasihomogeneous(12, (4, 6, 3)) == \
        milnor_quasihomogeneous(12, (3, 4, 6))


def test_milnor_rejects_non_singular_form():
    with pytest.raises(ValueError, match="isolated"):
        milnor_quasihomogeneous(6, (6, 2))
    with pytest.raises(ValueError, match="isolated"):
        milnor_quasihomogeneous(2, (2, 3))


def test_h4_sigma_total():
    assert h4_sigma_total(2, 9) == 18
    assert h4_sigma_total(0, 9) == 0
    assert h4_sigma_total(2, 0) == 0
    with pytest.raises(ValueError):
        h4_sigma_total(-1, 9)


def test_chi_singular():
    assert chi_singular(-38, [4] * 9) == -2
    assert chi_singular(-38, []) == -38
    assert chi_singular(4 - 42, [4, 4]) == -30


def test_chi_linearity_in_milnor_numbers():
    base = chi_singular(-38, [4] * 9)
    bumped = chi_singular(-38, [4] * 8 + [5])
    assert bumped == base + 1


def test_builtin_inputs_pipeline():
    inputs = builtin_cohomology_inputs()
    assert isinstance(inputs, CohomologyInputs)
    assert inputs.h3_smooth == 42
    assert inputs.local_h2_prim == 2
    assert inputs.h2_surface == 3
    assert inputs.milnor_numbers == (4,) * 9
    assert inputs.h4_sigma == 18
    assert inputs.chi == -2
    # chi = chi_smooth + sum of Milnor numbers, chi_smooth = 4 - h3
    assert inputs.chi == (4 - inputs.h3_smooth) + sum(inputs.milnor_numbers)


def test_graded_spec_validation():
    with pytest.raises(ValueError, match="weighted-homogeneous"):
        GradedRingSpec(poly=parse_polynomial("x^2 + x", ("x",), (1,)))
    with pytest.raises(ValueError, match="zero polynomial"):
        GradedRingSpec(poly=WPolynomial.zero(("x",), (1,)))


def test_fermat_member_validation():
    f = fermat_member(6, (2, 3, 1, 1, 1))
    assert len(f.terms) == 5 and f.is_weighted_homogeneous()
    with pytest.raises(ValueError, match="diagonal"):
        fermat_member(6, (4, 3, 1))
