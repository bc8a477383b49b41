"""Kink reference function: closed-form coefficients and error splits."""

import numpy as np
import pytest
from scipy.integrate import quad

from latsub.fourier import LatticeOperator
from latsub.index_sets import IndexSet, hyperbolic_cross
from latsub.lattice import Rank1Lattice, lattice_points
from latsub.solver import SolverConfig, least_squares
from latsub.testfunctions import (
    KINK_SCALE,
    KinkFunction,
    aliasing_error_sq,
    kink_coeff_1d,
    kink_coefficients,
    kink_eval,
    truncation_error_sq,
)

HALF_WIDTH = 1.0 / np.sqrt(5.0)


def coeff_quadrature(k):
    """Adaptive-quadrature oracle for the univariate coefficient."""
    re = quad(lambda x: KINK_SCALE * max(0.2 - (x - 0.5) ** 2, 0.0)
              * np.cos(2 * np.pi * k * x),
              0.5 - HALF_WIDTH, 0.5 + HALF_WIDTH,
              limit=400, epsabs=1e-14, epsrel=1e-14)[0]
    im = quad(lambda x: -KINK_SCALE * max(0.2 - (x - 0.5) ** 2, 0.0)
              * np.sin(2 * np.pi * k * x),
              0.5 - HALF_WIDTH, 0.5 + HALF_WIDTH,
              limit=400, epsabs=1e-14, epsrel=1e-14)[0]
    return re, im


class TestKinkEvaluation:
    def test_zero_outside_support(self):
        # any coordinate at 0 kills the product: |0 - 1/2| > 5^(-1/2)
        assert kink_eval(np.array([0.0, 0.3])) == 0.0
        assert kink_eval(np.array([0.25, 0.0, 0.5])) == 0.0

    def test_center_value_univariate(self):
        assert kink_eval(np.array([0.5])) == pytest.approx(
            KINK_SCALE / 5, rel=1e-15)
        assert KINK_SCALE / 5 == pytest.approx(1.4478652316103364, rel=1e-13)

    def test_center_value_5d(self):
        x = np.full(5, 0.5)
        assert kink_eval(x) == pytest.approx((KINK_SCALE / 5) ** 5, rel=1e-13)

    def test_nonnegative_and_vectorized(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        vals = kink_eval(pts)
        assert vals.shape == (200,)
        assert np.all(vals >= 0)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_matches_the_product_of_factors_bitwise(self, d):
        # the per-column product against the (n, d) factor matrix it replaced
        rng = np.random.default_rng(d)
        lat = Rank1Lattice(dimension=d, generator=rng.integers(0, 6480, size=d), size=6480)
        for pts in (rng.random((500, d)), lat.points(), lat.points(rng.integers(0, 6480, 99))):
            want = np.prod(KINK_SCALE * np.maximum(0.2 - (pts - 0.5) ** 2, 0.0), axis=1)
            got = kink_eval(pts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert kink_eval(pts[0]) == want[0]

    def test_callable_wrapper_checks_dimension(self):
        f = KinkFunction(dimension=2)
        with pytest.raises(ValueError):
            f(np.zeros((3, 4)))


class TestClosedFormCoefficients:
    def test_oracle_agreement_up_to_200(self):
        # mandatory pre-use check: closed form vs adaptive quadrature
        worst = 0.0
        for k in range(0, 201):
            re, im = coeff_quadrature(k)
            val = kink_coeff_1d(k)
            worst = max(worst, abs(val - re), abs(im))
            assert kink_coeff_1d(-k) == val  # even and real
        assert worst <= 1e-12

    def test_zero_mode(self):
        assert kink_coeff_1d(0) == pytest.approx(5**0.25 / np.sqrt(3), rel=1e-15)

    def test_decay_with_fitted_constant(self):
        ks = np.arange(1, 1001)
        vals = np.abs(kink_coeff_1d(ks))
        fitted = float(np.max(vals * ks**3.0))  # table-fitted constant
        assert np.all(vals <= fitted / ks**3.0 + 1e-300)
        assert fitted < 400  # frozen magnitude from the oracle table

    def test_product_structure(self):
        freqs = np.array([[0, 1], [2, 3], [-2, 3]])
        got = kink_coefficients(freqs)
        want = [kink_coeff_1d(0) * kink_coeff_1d(1),
                kink_coeff_1d(2) * kink_coeff_1d(3),
                kink_coeff_1d(-2) * kink_coeff_1d(3)]
        assert np.allclose(got, want, rtol=1e-15)

    def test_parseval_partial_sums(self):
        # monotone in the radius, below 1, and nearly 1 by |k| <= 64
        totals = []
        for kmax in (4, 8, 16, 32, 64):
            ks = np.arange(-kmax, kmax + 1)
            totals.append(float(np.sum(kink_coeff_1d(ks) ** 2)))
        assert totals == sorted(totals)
        assert totals[-1] <= 1.0
        assert totals[-1] >= 0.999

    def test_pointwise_series_convergence(self):
        rng = np.random.default_rng(1)
        pts = rng.random(100)
        errors = []
        for kmax in (8, 32, 128):
            ks = np.arange(-kmax, kmax + 1)
            coeffs = kink_coeff_1d(ks)
            series = np.real(
                np.exp(2j * np.pi * np.outer(pts, ks)) @ coeffs.astype(complex))
            errors.append(np.max(np.abs(series - kink_eval(pts[:, None]))))
        assert errors[2] < errors[1] < errors[0]

class TestErrorSplits:
    def test_empty_set_truncation_is_norm(self):
        assert truncation_error_sq(1.0, np.zeros(0)) == 1.0

    def test_zero_mode_only(self):
        ref = kink_coefficients(np.array([[0]]))
        # 1 - sqrt(5)/3, from the zero-mode oracle value
        assert truncation_error_sq(1.0, ref) == pytest.approx(
            1 - np.sqrt(5) / 3, rel=1e-12)

    def test_monotone_in_growing_sets(self):
        vals = []
        for R in (2.0, 4.0, 8.0, 16.0):
            I = hyperbolic_cross(2, 1.0, R)
            vals.append(truncation_error_sq(1.0, kink_coefficients(I.frequencies)))
        assert vals == sorted(vals, reverse=True)

    def test_inconsistent_reference_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            truncation_error_sq(0.5, np.array([1.0, 1.0]))

    def test_aliasing_zero_for_exact_restriction(self):
        I = hyperbolic_cross(2, 1.0, 3.0)
        ref = kink_coefficients(I.frequencies)
        assert aliasing_error_sq(ref, ref.astype(complex)) == 0.0

    def test_aliasing_vanishes_for_in_space_function(self):
        # a function already inside the space is reproduced exactly
        rng = np.random.default_rng(2)
        from latsub.lattice import search_generator

        I = hyperbolic_cross(2, 1.0, 3.0)
        lat = search_generator(I, rng_seed=0)
        op = LatticeOperator(lat, I)
        a_true = rng.standard_normal(len(I)) + 1j * rng.standard_normal(len(I))
        f = op.forward(a_true)
        a = op.adjoint(f) / lat.size
        assert aliasing_error_sq(a_true, a) <= 1e-20 * np.sum(np.abs(a_true) ** 2)

    def test_aliasing_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            aliasing_error_sq(np.zeros(3), np.zeros(4))

    def test_aliasing_two_ways_1d_kink(self):
        # definition (coefficient differences) vs dense projection difference
        I = IndexSet(dimension=1, frequencies=[[k] for k in range(-8, 9)])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=17)
        plan = lattice_points(lat)
        f = kink_eval(plan.points).astype(complex)
        op = LatticeOperator(lat, I)
        computed, _ = least_squares(op, plan.weights, f, SolverConfig())
        ref = kink_coefficients(I.frequencies)
        by_definition = aliasing_error_sq(ref, computed)
        # dense oracle: projection difference on a fine grid, exploiting that
        # both P_I f and the reconstruction live in the span of I
        grid = np.linspace(0, 1, 4096, endpoint=False)[:, None]
        chars = np.exp(2j * np.pi * (grid @ I.frequencies.T))
        diff = chars @ (ref - computed)
        by_projection = float(np.mean(np.abs(diff) ** 2))
        assert by_definition == pytest.approx(by_projection, abs=1e-12)

    def test_total_error_decomposition_against_quadrature(self):
        # ||f - S f||^2 = truncation^2 + aliasing^2, checked against a dense
        # grid estimate of the left side (d = 2, trigonometric accuracy)
        from latsub.lattice import search_generator

        I = hyperbolic_cross(2, 1.0, 4.0)
        lat = search_generator(I, rng_seed=1)
        plan = lattice_points(lat)
        f = kink_eval(plan.points).astype(complex)
        op = LatticeOperator(lat, I)
        computed, _ = least_squares(op, plan.weights, f, SolverConfig())
        ref = kink_coefficients(I.frequencies)
        split = truncation_error_sq(1.0, ref) + aliasing_error_sq(ref, computed)

        g = 512
        xs = np.linspace(0, 1, g, endpoint=False)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        recon = np.zeros(len(pts), dtype=complex)
        step = 1 << 16
        for lo in range(0, len(pts), step):
            chars = np.exp(2j * np.pi * (pts[lo:lo + step] @ I.frequencies.T))
            recon[lo:lo + step] = chars @ computed
        direct = float(np.mean(np.abs(kink_eval(pts) - recon) ** 2))
        assert split == pytest.approx(direct, abs=1e-6)
