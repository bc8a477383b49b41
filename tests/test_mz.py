"""Stability constants, Gram assembly, and exact-quadrature checks."""

import numpy as np
import pytest

import latsub.mz
from latsub.fourier import DenseOperator, _to_real
from latsub.index_sets import IndexSet, hyperbolic_cross
from latsub.lattice import Rank1Lattice, SamplePlan, lattice_points, search_generator
from latsub.mz import (
    SpectralBounds,
    _real_gram,
    gram_matrix,
    mz_constants,
    mz_report,
    quadrature_exactness,
)


def dense_plan(rng, n_points, d, kmax=2, n_freq=8):
    pts = rng.random((n_points, d))
    freqs = np.unique(rng.integers(-kmax, kmax + 1, size=(n_freq, d)), axis=0)
    I = IndexSet(dimension=d, frequencies=freqs)
    w = rng.random(n_points)
    return SamplePlan(points=pts, weights=w), I


class TestSpectralBounds:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpectralBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(-0.5, 1.0)

    def test_ratio(self):
        assert SpectralBounds(0.5, 1.5).ratio == pytest.approx(3.0)
        assert SpectralBounds(0.0, 1.0).ratio == np.inf


class TestMzConstants:
    def test_reconstructing_lattice_is_tight(self):
        I = hyperbolic_cross(2, 1.0, 4.0)
        lat = search_generator(I, rng_seed=2)
        bounds = mz_constants(lattice_points(lat), I)
        assert bounds.A == pytest.approx(1.0, abs=1e-11)
        assert bounds.B == pytest.approx(1.0, abs=1e-11)

    def test_all_zero_weights(self):
        I = hyperbolic_cross(1, 1.0, 2.0)
        plan = SamplePlan(points=np.linspace(0, 1, 7)[:, None], weights=np.zeros(7))
        bounds = mz_constants(plan, I)
        assert bounds.A == 0.0 and bounds.B == 0.0

    def test_two_point_exactness_by_hand(self):
        # I = {0, 1}, points {0, 1/2}, weights 1/2: Gram = Identity
        I = IndexSet(dimension=1, frequencies=[[0], [1]])
        plan = SamplePlan(points=[[0.0], [0.5]], weights=[0.5, 0.5])
        G = gram_matrix(plan, I)
        assert np.allclose(G, np.eye(2), atol=1e-15)
        bounds = mz_constants(plan, I)
        assert bounds.A == pytest.approx(1.0) and bounds.B == pytest.approx(1.0)

    def test_gram_matches_dense_assembly_lattice_path(self):
        rng = np.random.default_rng(0)
        I = hyperbolic_cross(2, 1.0, 3.0)
        lat = Rank1Lattice(dimension=2, generator=np.array([4, 9]), size=41)
        rows = rng.integers(0, 41, size=60)
        w = rng.random(60)
        plan = SamplePlan(points=lat.points(rows), weights=w,
                          lattice=lat, lattice_rows=rows)
        L = np.exp(2j * np.pi * (lat.points(rows) @ I.frequencies.T))
        want = L.conj().T @ (w[:, None] * L)
        got = gram_matrix(plan, I)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        plan, I = dense_plan(rng, 30, 2)
        perm = rng.permutation(30)
        plan2 = SamplePlan(points=plan.points[perm], weights=plan.weights[perm])
        b1, b2 = mz_constants(plan, I), mz_constants(plan2, I)
        assert b1.A == pytest.approx(b2.A, rel=1e-10)
        assert b1.B == pytest.approx(b2.B, rel=1e-10)

    def test_size_cap(self):
        I = IndexSet(dimension=1, frequencies=[[k] for k in range(-2500, 2500)])
        plan = SamplePlan(points=[[0.0]], weights=[1.0])
        with pytest.raises(ValueError, match="exceeds DENSE_EIG_CAP = 4096"):
            mz_constants(plan, I)
        # the real path of a symmetric set on a lattice has the same cap
        I = IndexSet(dimension=1, frequencies=[[k] for k in range(-2500, 2501)])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=5003)
        with pytest.raises(ValueError, match="exceeds DENSE_EIG_CAP = 4096"):
            mz_constants(lattice_points(lat), I)

    def test_input_validation(self):
        I = hyperbolic_cross(2, 1.0, 2.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            mz_constants(SamplePlan(points=[[0.0, 0.0, 0.0]], weights=[1.0]), I)
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 5]), size=31)
        short = SamplePlan(points=lat.points()[:30], weights=np.full(30, 1 / 30), lattice=lat)
        with pytest.raises(ValueError, match="full-lattice plan weight count != M"):
            gram_matrix(short, I)


def symmetric_set(odd):
    """A hyperbolic cross (odd |I|, k = 0 in the middle), or that cross without 0."""
    I = hyperbolic_cross(3, 1.0, 6.0)
    if not odd:
        I = IndexSet(3, np.delete(I.frequencies, len(I) // 2, axis=0))
    assert I.symmetric and len(I) % 2 == odd
    return I


def lattice_plan(I, masked):
    """The full reconstructing lattice, or random rows of it with repeats."""
    lat = search_generator(I, rng_seed=3)
    if not masked:
        return lattice_points(lat)
    rng = np.random.default_rng(4)
    rows = rng.integers(0, lat.size, 400)
    rows[:30] = rows[30:60]
    return SamplePlan(points=lat.points(rows), weights=rng.random(400),
                      lattice=lat, lattice_rows=rows)


class TestRealGram:
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_matches_the_complex_gram(self, odd, masked):
        I = symmetric_set(odd)
        plan = lattice_plan(I, masked)
        G = gram_matrix(plan, I)
        R = _real_gram(plan, I)
        assert R.dtype == np.float64 and np.array_equal(R, R.T)
        TGT = _to_real(_to_real(G).conj().T).conj().T  # T G T^H
        scale = np.max(np.abs(G))
        assert np.max(np.abs(TGT - R)) <= 1e-13 * scale
        lam, lam_real = np.linalg.eigvalsh(G), np.linalg.eigvalsh(R)
        assert np.max(np.abs(lam - lam_real)) <= 1e-12 * lam[-1]
        bounds = mz_constants(plan, I)
        assert abs(bounds.A - lam[0]) <= 1e-12 * lam[-1]
        assert abs(bounds.B - lam[-1]) <= 1e-12 * lam[-1]

    def test_only_symmetric_lattice_plans_take_the_real_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(latsub.mz, "gram_matrix",
                            lambda *args: calls.append(1) or gram_matrix(*args))
        I = symmetric_set(odd=True)
        plan = lattice_plan(I, masked=True)
        mz_constants(plan, I)
        assert not calls
        asymmetric = IndexSet(3, I.frequencies[: len(I) // 2 + 1])
        assert not asymmetric.symmetric
        mz_constants(plan, asymmetric)
        assert len(calls) == 1
        no_lattice = SamplePlan(points=plan.points, weights=plan.weights)
        mz_constants(no_lattice, I)
        assert len(calls) == 2


class TestDiscreteSumEquivalence:
    def test_sampled_sums_lie_within_bounds(self):
        # the two-sided inequality holds for sampled members of the space
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_points = int(rng.integers(10, 40))
            d = int(rng.integers(1, 3))
            plan, I = dense_plan(rng, n_points, d, kmax=3, n_freq=12)
            if len(I) > 45:
                continue
            bounds = mz_constants(plan, I)
            op = DenseOperator(plan.points, I)
            for _ in range(50):
                a = rng.standard_normal(len(I)) + 1j * rng.standard_normal(len(I))
                discrete = np.sum(plan.weights * np.abs(op.forward(a)) ** 2)
                norm_sq = np.sum(np.abs(a) ** 2)  # Parseval
                assert discrete >= bounds.A * norm_sq * (1 - 1e-9) - 1e-12
                assert discrete <= bounds.B * norm_sq * (1 + 1e-9) + 1e-12


class TestQuadratureExactness:
    def test_reconstructing_lattice_returns_one(self):
        I = hyperbolic_cross(3, 1.0, 3.0)
        lat = search_generator(I, rng_seed=4)
        assert quadrature_exactness(lattice_points(lat), I) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            quadrature_exactness(lattice_points(lat), I, tol=0.0)

    def test_colliding_pair_returns_none(self):
        # z = 1, M = 2 on {-1, 0, 1}: frequencies -1 and 1 share a residue,
        # so the corresponding off-diagonal Gram entry equals 1
        I = IndexSet(dimension=1, frequencies=[[-1], [0], [1]])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=2)
        plan = lattice_points(lat)
        G = gram_matrix(plan, I)
        assert abs(G[0, 2] - 1.0) < 1e-15  # the collision shows up directly
        assert quadrature_exactness(plan, I) is None

    def test_scaled_weights_scale_the_constant(self):
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = search_generator(I, rng_seed=5)
        plan = lattice_points(lat)
        scaled = SamplePlan(points=plan.points, weights=3.5 * plan.weights,
                            lattice=lat)
        assert quadrature_exactness(scaled, I) == pytest.approx(3.5)

    def test_exactness_iff_tight_constants(self):
        rng = np.random.default_rng(6)
        tol = 1e-8
        for _ in range(40):
            plan, I = dense_plan(rng, 25, 2, kmax=2, n_freq=9)
            exact = quadrature_exactness(plan, I, tol)
            bounds = mz_constants(plan, I)
            if exact is not None:
                assert bounds.B - bounds.A <= 2 * tol * max(1.0, bounds.B)
            if bounds.B - bounds.A > 2 * len(I) * tol:
                assert exact is None


class TestReport:
    def test_report_fields(self):
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = search_generator(I, rng_seed=6)
        rep = mz_report(lattice_points(lat), I)
        assert rep["exact_quadrature"] is True
        assert rep["quadrature_constant"] == pytest.approx(1.0)
        assert rep["num_frequencies"] == len(I)
        assert rep["num_points"] == lat.size
        assert rep["ratio"] == pytest.approx(1.0)
