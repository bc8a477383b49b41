"""Index set construction, weights, eigenvalues, and serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsub.index_sets import (
    DEFAULT_SIZE_CAP,
    IndexSet,
    embedding_eigenvalues,
    hyperbolic_cross,
    hyperbolic_cross_product,
    mixed_weight,
    select_largest_eigenvalues,
)


def brute_force_cross(d, gamma, R):
    """Oracle: enumerate the full bounding box and apply the membership test."""
    kmax = int(np.floor(gamma * R)) + 1
    members = [
        k
        for k in itertools.product(range(-kmax, kmax + 1), repeat=d)
        if hyperbolic_cross_product(k, gamma) <= R
    ]
    return sorted(members)


class TestHyperbolicCross:
    def test_tiny_radius_keeps_only_zero(self):
        # any |k_j| >= 1 contributes a factor 2|k_j| >= 2 > 1.9
        for d in (1, 2, 5):
            I = hyperbolic_cross(d, gamma=0.5, R=1.9)
            assert len(I) == 1
            assert np.all(I.frequencies == 0)

    def test_univariate_is_an_interval(self):
        I = hyperbolic_cross(1, gamma=1.0, R=4.0)
        assert len(I) == 9
        assert np.array_equal(I.frequencies.ravel(), np.arange(-4, 5))

    def test_d2_r2_matches_brute_force(self):
        # oracle-computed set; includes the boundary points like (2, 1)
        # whose product equals R exactly (membership is non-strict)
        oracle = brute_force_cross(2, 1.0, 2.0)
        I = hyperbolic_cross(2, gamma=1.0, R=2.0)
        assert [tuple(row) for row in I.frequencies] == oracle
        assert (2, 1) in [tuple(r) for r in I.frequencies]

    @pytest.mark.parametrize("d,gamma,R", [(1, 1.0, 7.0), (2, 0.5, 6.0),
                                           (2, 2.0, 3.5), (3, 1.0, 4.0)])
    def test_matches_brute_force(self, d, gamma, R):
        oracle = brute_force_cross(d, gamma, R)
        I = hyperbolic_cross(d, gamma, R)
        assert [tuple(row) for row in I.frequencies] == oracle

    def test_componentwise_bound(self):
        I = hyperbolic_cross(3, gamma=1.5, R=8.0)
        assert np.all(np.abs(I.frequencies) <= 1.5 * 8.0)

    def test_symmetry_under_sign_flip_and_permutation(self):
        I = hyperbolic_cross(3, gamma=1.0, R=6.0)
        rows = {tuple(r) for r in I.frequencies}
        for row in I.frequencies:
            assert tuple(-row) in rows
            for perm in itertools.permutations(row):
                assert perm in rows

    def test_monotone_in_radius_and_gamma(self):
        sizes_r = [len(hyperbolic_cross(2, 1.0, R)) for R in (2, 3, 4, 6, 8)]
        assert sizes_r == sorted(sizes_r)
        sizes_g = [len(hyperbolic_cross(2, g, 4.0)) for g in (0.5, 1.0, 1.5, 2.0)]
        assert sizes_g == sorted(sizes_g)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hyperbolic_cross(2, gamma=0.0, R=4.0)
        with pytest.raises(ValueError):
            hyperbolic_cross(2, gamma=1.0, R=1.0)
        with pytest.raises(ValueError):
            hyperbolic_cross(2, gamma=np.inf, R=4.0)
        with pytest.raises(ValueError):
            hyperbolic_cross(0, gamma=1.0, R=4.0)

    def test_size_cap_guard(self):
        with pytest.raises(ValueError, match="size cap"):
            hyperbolic_cross(2, gamma=1.0, R=200.0, size_cap=100)
        assert DEFAULT_SIZE_CAP > 10**6

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 3),
        gamma=st.sampled_from([0.5, 1.0, 2.0]),
        R=st.floats(1.1, 24.0),
    )
    def test_membership_agrees_with_enumeration(self, d, gamma, R):
        I = hyperbolic_cross(d, gamma, R)
        got = {tuple(r) for r in I.frequencies}
        assert got == set(map(tuple, brute_force_cross(d, gamma, R)))


class TestIndexSetType:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet(dimension=2, frequencies=[[0, 1], [0, 1]])

    def test_dimension_and_shape_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            IndexSet(dimension=0, frequencies=np.zeros((1, 0)))
        with pytest.raises(ValueError, match=r"frequencies must have shape \(n, 2\)"):
            IndexSet(dimension=2, frequencies=[[0, 1, 2]])

    def test_deterministic_lexicographic_order(self):
        I = IndexSet(dimension=2, frequencies=[[1, 0], [-1, 2], [0, 0], [-1, -2]])
        assert [tuple(r) for r in I.frequencies] == [
            (-1, -2), (-1, 2), (0, 0), (1, 0)]

    def test_contains(self):
        I = hyperbolic_cross(2, 1.0, 3.0)
        assert [2, 2] not in I
        assert [3, 0] in I
        assert [0, 0] in I
        assert [0, 0, 0] not in I
        assert [0, 0] not in IndexSet(dimension=2, frequencies=np.zeros((0, 2)))

    def test_frequencies_immutable(self):
        I = hyperbolic_cross(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            I.frequencies[0, 0] = 99

    def test_text_round_trip(self, tmp_path):
        I = hyperbolic_cross(3, 0.5, 9.0)
        text = I.to_text()
        assert text.startswith(f"d=3 count={len(I)}\n")
        again = IndexSet.from_text(text)
        assert np.array_equal(I.frequencies, again.frequencies)
        path = tmp_path / "set.txt"
        I.save(path)
        assert np.array_equal(IndexSet.load(path).frequencies, I.frequencies)

    @pytest.mark.parametrize("text", ["", "\n  \n", "d=2", "2 5", "count=3 d=2"])
    def test_text_without_header_rejected(self, text):
        with pytest.raises(ValueError, match="'d=<d> count=<n>'"):
            IndexSet.from_text(text)

    def test_text_with_missing_rows_rejected(self):
        with pytest.raises(ValueError, match="expected 3 frequency rows, found 2"):
            IndexSet.from_text("d=2 count=3\n0 0\n0 1\n")


class TestWeightsAndEigenvalues:
    def test_zero_frequency(self):
        assert mixed_weight(np.zeros(4, dtype=int), 1.0) == 1.0
        assert embedding_eigenvalues(np.zeros(4, dtype=int), 1.0) == 1.0

    def test_univariate_value(self):
        # frozen from evaluating (1 + 4 pi^2)^(1/2) in 30-digit arithmetic
        assert mixed_weight(np.array([1]), 1.0) == pytest.approx(
            6.36226513156732839, rel=1e-14)
        assert embedding_eigenvalues(np.array([1]), 1.0) == pytest.approx(
            0.0247045230318576401, rel=1e-14)

    def test_product_structure(self):
        w1 = mixed_weight(np.array([1]), 1.0)
        assert mixed_weight(np.array([1, 1]), 1.0) == pytest.approx(
            w1 * w1, rel=1e-14)
        assert mixed_weight(np.array([1, 1]), 1.0) == pytest.approx(
            1 + 4 * np.pi**2, rel=1e-14)

    def test_weight_at_least_one_and_reciprocal_identity(self):
        I = hyperbolic_cross(3, 1.0, 6.0)
        w = mixed_weight(I.frequencies, 0.75)
        lam = embedding_eigenvalues(I.frequencies, 0.75)
        assert np.all(w >= 1.0)
        # eigenvalue * weight^2 = 1 to a few ulp
        assert np.allclose(lam * w * w, 1.0, rtol=4 * np.finfo(float).eps)

    def test_eigenvalue_monotone_in_each_component(self):
        ks = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]])
        lam = embedding_eigenvalues(ks, 1.25)
        assert np.all(np.diff(lam) < 0)

    def test_finite_trace_partial_sum(self):
        # univariate eigenvalue sum for s = 1; the closed form is
        # 1 + coth(1/2)/2 - 1 = 1.0819767068693264 (25-digit oracle),
        # and the partial sum over |k| <= 1e6 sits just below it
        k = np.arange(1, 10**6 + 1)
        lam = 1.0 / (1.0 + (2 * np.pi * k) ** 2)
        total = 1.0 + 2.0 * lam.sum()
        assert 1.0819766 < total < 1.0819767068693264

    def test_rejects_small_smoothness(self):
        with pytest.raises(ValueError, match="s > 1/2"):
            mixed_weight(np.array([1]), 0.5)


class TestSelectLargest:
    def test_full_selection_is_identity(self):
        I = hyperbolic_cross(2, 1.0, 3.0)
        out = select_largest_eigenvalues(I, len(I), 1.0)
        assert np.array_equal(out.frequencies, I.frequencies)

    def test_univariate_keeps_small_frequencies(self):
        parent = IndexSet(dimension=1, frequencies=[[-2], [-1], [0], [1], [2]])
        out = select_largest_eigenvalues(parent, 3, 1.0)
        assert {int(k) for k in out.frequencies.ravel()} == {-1, 0, 1}

    def test_d2_cross_top5(self):
        parent = hyperbolic_cross(2, 1.0, 2.0)
        out = select_largest_eigenvalues(parent, 5, 1.0)
        assert {tuple(r) for r in out.frequencies} == {
            (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_oracle_agreement_on_random_m(self):
        parent = hyperbolic_cross(2, 1.0, 6.0)
        lam = embedding_eigenvalues(parent.frequencies, 1.5)
        for m in (1, 4, 11, len(parent)):
            out = select_largest_eigenvalues(parent, m, 1.5)
            kept = embedding_eigenvalues(out.frequencies, 1.5)
            dropped = sorted(lam, reverse=True)[m:]
            assert len(out) == m
            if dropped:
                assert kept.min() >= max(dropped) - 1e-18

    def test_oversized_request_rejected(self):
        I = hyperbolic_cross(1, 1.0, 2.0)
        with pytest.raises(ValueError):
            select_largest_eigenvalues(I, len(I) + 1, 1.0)
