"""Weighted least-squares solves: CG on the normal operator, and the wrapper."""

import json
from dataclasses import fields

import numpy as np
import pytest

from latsub.fourier import DenseOperator, LatticeOperator, SystemOperator
from latsub.index_sets import IndexSet, hyperbolic_cross
from latsub.lattice import SamplePlan, search_generator
from latsub.mz import SpectralBounds, mz_constants
from latsub.solver import (
    SolverConfig,
    _solve_cg,
    least_squares,
    operator_for,
    reconstruct,
)
from latsub.subsampling import density_weights, plain_bss_subsample, random_subsample
from latsub.testfunctions import KinkFunction


def crandn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def tight_setup(d, gamma, R, seed):
    I = hyperbolic_cross(d, gamma, R)
    lat = search_generator(I, rng_seed=seed)
    plan = SamplePlan(weights=np.full(lat.size, 1 / lat.size),
                      bounds=SpectralBounds(1.0, 1.0), lattice=lat)
    return I, lat, plan


class TestLeastSquares:
    def test_full_lattice_reproduces_exactly(self):
        rng = np.random.default_rng(0)
        I, lat, plan = tight_setup(2, 1.0, 4.0, seed=0)
        op = LatticeOperator(lat, I)
        a_true = crandn(rng, len(I))
        f = op.forward(a_true)
        a, diag = least_squares(op, plan.weights, f, SolverConfig())
        assert np.max(np.abs(a - a_true)) < 1e-12 * np.max(np.abs(a_true))
        # identical to the plain rescaled adjoint (tight frame, no inverse)
        assert np.allclose(a, op.adjoint(f) / lat.size, atol=1e-13)
        assert diag.converged

    def test_zero_samples_give_zero_coefficients(self):
        I, lat, plan = tight_setup(1, 1.0, 4.0, seed=1)
        op = LatticeOperator(lat, I)
        a, diag = least_squares(op, plan.weights, np.zeros(lat.size))
        assert np.all(a == 0)
        assert diag.iterations == 0

    def test_subsampled_recovery_with_certified_floor(self):
        rng = np.random.default_rng(2)
        I, lat, plan = tight_setup(2, 1.0, 3.0, seed=2)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=8 * len(I), seed=3)
        bounds = mz_constants(sel.as_plan(), I)
        assert bounds.A >= 1e-3  # certified stable instance
        op = LatticeOperator(lat, I).masked(sel.indices)
        a_true = crandn(rng, len(I))
        f = op.forward(a_true)
        cfg = SolverConfig(max_iterations=200, residual_tolerance=1e-14)
        a, _ = least_squares(op, sel.reweights, f, cfg)
        assert np.max(np.abs(a - a_true)) < 1e-8

    def test_reproduction_scales_with_conditioning(self):
        # members of the space are recovered to 1e-8 * (B/A) relative on any
        # certified-stable system (uncapped iterations)
        rng = np.random.default_rng(11)
        I, lat, plan = tight_setup(2, 1.0, 3.0, seed=20)
        rho = density_weights(plan)
        cfg = SolverConfig(max_iterations=3000, residual_tolerance=1e-15)
        for trial in range(6):
            sel = random_subsample(plan, rho, n=3 * len(I), seed=40 + trial)
            bounds = mz_constants(sel.as_plan(), I)
            if bounds.A <= 1e-6:
                continue
            op = LatticeOperator(lat, I).masked(sel.indices)
            a_true = crandn(rng, len(I))
            a, _ = least_squares(op, sel.reweights, op.forward(a_true), cfg)
            limit = 1e-8 * bounds.ratio * np.linalg.norm(a_true)
            assert np.linalg.norm(a - a_true) <= limit

    def test_direct_and_iterative_agree(self):
        rng = np.random.default_rng(3)
        I, lat, plan = tight_setup(2, 1.0, 3.0, seed=4)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=10 * len(I), seed=5)
        bounds = mz_constants(sel.as_plan(), I)
        assert bounds.ratio <= 10
        op = LatticeOperator(lat, I).masked(sel.indices)
        f = crandn(rng, len(sel))  # arbitrary data, not in the range
        sw = np.sqrt(sel.reweights)
        direct, *_ = np.linalg.lstsq(sw[:, None] * op.dense_matrix(), sw * f, rcond=None)
        iterative, diag = least_squares(
            op, sel.reweights, f,
            SolverConfig(max_iterations=500, residual_tolerance=1e-15))
        assert diag.converged
        assert np.max(np.abs(direct - iterative)) < 1e-7 * np.max(np.abs(direct))

    def test_weighted_residual_optimality(self):
        rng = np.random.default_rng(4)
        I, lat, plan = tight_setup(1, 1.0, 6.0, seed=6)
        rows = rng.integers(0, lat.size, size=3 * len(I))
        w = rng.random(3 * len(I)) + 0.1
        op = LatticeOperator(lat, I).masked(rows)
        f = crandn(rng, len(rows))
        a, diag = least_squares(
            op, w, f, SolverConfig(max_iterations=500, residual_tolerance=1e-15))
        assert diag.converged
        base = np.sqrt(np.sum(w * np.abs(op.forward(a) - f) ** 2))
        for _ in range(100):
            delta = crandn(rng, len(I))
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = np.sqrt(
                np.sum(w * np.abs(op.forward(a + delta) - f) ** 2))
            assert perturbed >= base * (1 - 1e-12)

    def test_iteration_cap_flagged_not_raised(self):
        rng = np.random.default_rng(5)
        I, lat, plan = tight_setup(2, 1.0, 3.0, seed=7)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=3 * len(I), seed=8)
        op = LatticeOperator(lat, I).masked(sel.indices)
        f = crandn(rng, len(sel))
        a, diag = least_squares(op, sel.reweights, f,
                                SolverConfig(max_iterations=1,
                                             residual_tolerance=1e-16))
        assert diag.iterations == 1
        assert not diag.converged

    def test_semidefinite_direction_stops_cg(self):
        # a normal map that returns zeros: the first direction p has
        # p* G p = 0, so CG stops before its first step, unconverged
        class ZeroNormal(SystemOperator):
            index_set = IndexSet(dimension=1, frequencies=[[0], [1]])
            kind = "stub"
            row_count = 3

            def adjoint(self, values):
                return np.array([1.0, -2.0j])  # a nonzero right-hand side

            def normal(self, weights):
                return lambda coeffs: np.zeros_like(coeffs)

        a, diag = least_squares(ZeroNormal(), np.ones(3), np.array([1.0, 1j, 0.0]))
        assert diag.iterations == 0 and not diag.converged
        assert not a.any()
        assert diag.normal_residual == pytest.approx(np.sqrt(5.0))

    def test_validation(self):
        I, lat, plan = tight_setup(1, 1.0, 2.0, seed=9)
        op = LatticeOperator(lat, I)
        with pytest.raises(ValueError):
            least_squares(op, plan.weights[:-1], np.zeros(lat.size))
        with pytest.raises(ValueError):
            least_squares(op, -plan.weights, np.zeros(lat.size))
        with pytest.raises(ValueError, match=f"expected {lat.size} samples"):
            least_squares(op, plan.weights, np.zeros(lat.size + 1))
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError, match="residual_tolerance must be nonnegative"):
            SolverConfig(residual_tolerance=-1e-12)
        with pytest.raises(TypeError, match="cannot build an operator for ndarray"):
            operator_for(plan.points, I)

    def test_diagnostics_json(self):
        I, lat, plan = tight_setup(1, 1.0, 2.0, seed=10)
        op = LatticeOperator(lat, I)
        _, diag = least_squares(op, plan.weights, np.ones(lat.size, dtype=complex))
        data = json.loads(diag.to_json())
        assert data["operator_kind"] == "lattice_fft"
        assert data["converged"] is True


def count_normal_builds(monkeypatch):
    calls = []
    build = LatticeOperator.normal

    def counted(self, weights):
        calls.append(len(weights))
        return build(self, weights)

    monkeypatch.setattr(LatticeOperator, "normal", counted)
    return calls


def test_normal_operator_built_once_per_solve(monkeypatch):
    rng = np.random.default_rng(12)
    I, lat, plan = tight_setup(2, 1.0, 6.0, seed=3)
    rows = rng.integers(0, lat.size, size=3 * len(I))
    op = LatticeOperator(lat, I).masked(rows)
    calls = count_normal_builds(monkeypatch)
    _, diag = least_squares(op, rng.random(len(rows)), crandn(rng, len(rows)),
                            SolverConfig(max_iterations=10))
    assert calls == [len(rows)]
    assert diag.iterations == 10


def complex_solve(op, w, f, cfg):
    """The oracle: complex CG on the same data, with its diagnostics."""
    f = np.asarray(f, dtype=complex)
    return _solve_cg(op.normal(w), op.adjoint(w * f), cfg)


def kink_system(kind, d=3, R=8.0, seed=1):
    """An operator on a symmetric cross, weights and real kink samples."""
    I, lat, plan = tight_setup(d, 0.5, R, seed=seed)
    n = int(np.ceil(len(I) * np.log(len(I))))
    if kind == "full":
        op, w, pts = LatticeOperator(lat, I), plan.weights, plan.points
    elif kind == "masked":
        sel = random_subsample(plan, density_weights(plan), n, seed=seed)
        op, w = LatticeOperator(lat, I).masked(sel.indices), sel.reweights
        pts = plan.points[sel.indices]
    else:
        pts = np.random.default_rng(seed).random((n, d))
        op, w = DenseOperator(pts, I), np.full(n, 1.0 / n)
    return op, w, KinkFunction(d)(pts)


class TestRealBasisSolve:
    """least_squares in the real basis against complex CG on the same data."""

    @pytest.mark.parametrize("kind", ["full", "masked", "dense"])
    @pytest.mark.parametrize("cap", [3, 10])
    def test_matches_complex_path(self, kind, cap):
        op, w, f = kink_system(kind)
        assert op.index_set.symmetric and f.dtype == np.float64
        cfg = SolverConfig(max_iterations=cap)
        a, diag = least_squares(op, w, f, cfg)
        want, iterations, normal_residual, converged = complex_solve(op, w, f, cfg)
        assert np.linalg.norm(a - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(a[::-1], a.conj())  # conjugate-symmetric, exactly
        assert diag.iterations == iterations
        assert diag.converged == converged
        if converged:  # both met the tolerance; below it the residual is rounding noise
            rhs_norm = np.linalg.norm(op.adjoint(w * f))
            assert diag.normal_residual <= cfg.residual_tolerance * rhs_norm
        else:
            assert abs(diag.normal_residual - normal_residual) <= 1e-12 * normal_residual

    def test_complex_dtype_with_zero_imaginary_parts_is_real(self):
        op, w, f = kink_system("masked")
        a, _ = least_squares(op, w, f.astype(complex))
        b, _ = least_squares(op, w, f)
        assert np.array_equal(a, b)


class TestDiagnostics:
    """The diagnostics are what CG computes anyway: no extra operator apply."""

    def test_solve_applies_neither_forward_nor_adjoint(self, monkeypatch):
        op, w, f = kink_system("masked")
        calls = []
        for name in ("forward", "adjoint"):
            method = getattr(LatticeOperator, name)
            monkeypatch.setattr(LatticeOperator, name,
                                lambda self, v, name=name, method=method:
                                calls.append(name) or method(self, v))
        least_squares(op, w, f)
        assert calls == []

    def test_json_keys_and_dataclass_fields(self):
        op, w, f = kink_system("masked")
        _, diag = least_squares(op, w, f)
        data = json.loads(diag.to_json())
        assert list(data) == ["operator_kind", "iterations", "normal_residual",
                              "converged", "wall_time_s"]
        assert [field.name for field in fields(diag)] == list(data)


class PathSpy:
    """Counts which normal-operator builder an operator instance is asked for."""

    def __init__(self, op):
        self.calls = []
        for name in ("normal", "real_normal"):
            build = getattr(op, name)
            setattr(op, name, self._counted(name, build))

    def _counted(self, name, build):
        def counted(*args):
            self.calls.append(name)
            return build(*args)
        return counted


@pytest.mark.parametrize("kind", ["masked", "dense"])
def test_complex_samples_and_asymmetric_sets_take_the_complex_path(kind):
    rng = np.random.default_rng(4)
    op, w, f = kink_system(kind)
    spy = PathSpy(op)
    least_squares(op, w, f)
    assert spy.calls == ["real_normal"]
    spy.calls.clear()
    least_squares(op, w, f + 1e-3j * rng.standard_normal(len(f)))
    assert spy.calls == ["normal"]

    I = op.index_set
    asymmetric = IndexSet(dimension=I.dimension, frequencies=I.frequencies[1:])
    assert not asymmetric.symmetric
    if kind == "dense":
        op = DenseOperator(op.points, asymmetric)
    else:
        op = LatticeOperator(op.lattice, asymmetric, op.rows)
    spy = PathSpy(op)
    least_squares(op, w, f)
    assert spy.calls == ["normal"]


class TestReconstructWrapper:
    def test_full_lattice_equals_scaled_adjoint(self):
        rng = np.random.default_rng(6)
        I, lat, plan = tight_setup(2, 1.0, 3.0, seed=11)
        op = LatticeOperator(lat, I)
        f = op.forward(crandn(rng, len(I)))
        a_wrap, diag = reconstruct(plan, I, f)
        assert np.allclose(a_wrap, op.adjoint(f) / lat.size, atol=1e-12)
        assert diag.operator_kind == "lattice_fft"

    def test_selection_equals_manual_weights(self):
        rng = np.random.default_rng(7)
        I, lat, plan = tight_setup(2, 1.0, 2.0, seed=12)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=6 * len(I), seed=13)
        f = crandn(rng, len(sel))
        a_wrap, _ = reconstruct(sel, I, f)
        op = LatticeOperator(lat, I).masked(sel.indices)
        a_manual, _ = least_squares(op, sel.reweights, f)
        assert np.array_equal(a_wrap, a_manual)

    def test_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(8)
        I, lat, plan = tight_setup(1, 1.0, 5.0, seed=14)
        rows = rng.integers(0, lat.size, size=4 * len(I))
        w = rng.random(len(rows)) + 0.05
        op = LatticeOperator(lat, I).masked(rows)
        f = crandn(rng, len(rows))
        cfg = SolverConfig(max_iterations=300, residual_tolerance=1e-14)
        a1, _ = least_squares(op, w, f, cfg)
        a2, _ = least_squares(op, 7.25 * w, f, cfg)
        assert np.max(np.abs(a1 - a2)) < 1e-9 * max(np.max(np.abs(a1)), 1.0)

    def test_dense_source_uses_dense_operator(self):
        rng = np.random.default_rng(9)
        I = hyperbolic_cross(2, 1.0, 2.0)
        pts = rng.random((5 * len(I), 2))
        plan = SamplePlan(points=pts, weights=np.full(len(pts), 1 / len(pts)))
        op = DenseOperator(pts, I)
        f = op.forward(crandn(rng, len(I)))
        a, diag = reconstruct(plan, I, f,
                              SolverConfig(max_iterations=200,
                                           residual_tolerance=1e-14))
        assert diag.operator_kind == "dense"
        assert np.sqrt(np.sum(plan.weights * np.abs(op.forward(a) - f) ** 2)) < 1e-10

    def test_bss_selection_source(self):
        rng = np.random.default_rng(10)
        I, lat, plan = tight_setup(2, 1.0, 2.0, seed=15)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=8 * len(I), seed=16)
        out = plain_bss_subsample(sel, I, b=3.0)
        op = LatticeOperator(lat, I).masked(out.indices)
        a_true = crandn(rng, len(I))
        f = op.forward(a_true)
        a, _ = reconstruct(out, I, f, SolverConfig(max_iterations=300,
                                                   residual_tolerance=1e-14))
        assert np.max(np.abs(a - a_true)) < 1e-8
