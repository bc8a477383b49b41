"""FFT-accelerated operators against dense oracles."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsub.fourier import (
    DenseOperator,
    LatticeOperator,
    SystemOperator,
    _characters,
    _from_real,
    _to_real,
)
from latsub.index_sets import IndexSet, hyperbolic_cross
from latsub.lattice import Rank1Lattice, search_generator
from latsub.solver import SolverConfig, least_squares


def random_instance(rng, max_dim=3, max_m=40, reconstructing=False):
    d = int(rng.integers(1, max_dim + 1))
    kmax = int(rng.integers(1, 4))
    freqs = np.unique(rng.integers(-kmax, kmax + 1, size=(max_m, d)), axis=0)
    I = IndexSet(dimension=d, frequencies=freqs)
    if reconstructing:
        lat = search_generator(I, rng_seed=int(rng.integers(0, 2**31)))
    else:
        M = int(rng.integers(len(I), 4 * len(I) + 8))
        z = rng.integers(0, M, size=d)
        lat = Rank1Lattice(dimension=d, generator=z, size=M)
    return lat, I


def crandn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestForward:
    def test_constant_mode_gives_ones(self):
        I = IndexSet(dimension=2, frequencies=[[0, 0], [1, 0]])
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 2]), size=7)
        op = LatticeOperator(lat, I)
        a = np.array([1.0, 0.0])
        assert np.allclose(op.forward(a), 1.0)

    def test_single_character_on_equispaced_points(self):
        I = IndexSet(dimension=1, frequencies=[[-1], [0], [1]])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=4)
        op = LatticeOperator(lat, I)
        values = op.forward(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(values, [1, 1j, -1, -1j], atol=1e-14)

    def test_matches_dense_on_d2_cross(self):
        rng = np.random.default_rng(0)
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 12]), size=31)
        fft_op = LatticeOperator(lat, I)
        dense_op = DenseOperator(lat.points(), I)
        a = crandn(rng, len(I))
        got, want = fft_op.forward(a), dense_op.forward(a)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_dimension_mismatch_rejected(self):
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 5]), size=31)
        op = LatticeOperator(lat, I)
        with pytest.raises(ValueError):
            op.forward(np.zeros(len(I) + 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            LatticeOperator(Rank1Lattice(dimension=3, generator=[1, 5, 7], size=31), I)
        with pytest.raises(ValueError, match="1-d index list"):
            LatticeOperator(lat, I, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            op.masked(np.array([0, 31]))
        with pytest.raises(ValueError, match="points must have 2 columns, got 3"):
            DenseOperator(np.zeros((4, 3)), I)


class TestAdjoint:
    def test_reconstructing_lattice_inverts_scaled(self):
        rng = np.random.default_rng(1)
        I = hyperbolic_cross(2, 1.0, 3.0)
        lat = search_generator(I, rng_seed=5)
        op = LatticeOperator(lat, I)
        a = crandn(rng, len(I))
        back = op.adjoint(op.forward(a))
        assert np.max(np.abs(back - lat.size * a)) < 1e-10 * lat.size

    def test_zeros(self):
        I = hyperbolic_cross(1, 1.0, 3.0)
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=9)
        op = LatticeOperator(lat, I)
        assert np.all(op.adjoint(np.zeros(9)) == 0)

    def test_masked_matches_dense(self):
        rng = np.random.default_rng(2)
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = Rank1Lattice(dimension=2, generator=np.array([3, 7]), size=29)
        rows = rng.integers(0, 29, size=40)  # duplicates on purpose
        fft_op = LatticeOperator(lat, I).masked(rows)
        dense_op = DenseOperator(lat.points(), I, rows=rows)
        f = crandn(rng, 40)
        got, want = fft_op.adjoint(f), dense_op.adjoint(f)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        a = crandn(rng, len(I))
        got, want = fft_op.forward(a), dense_op.forward(a)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestMaskedViews:
    """``masked`` on a view composes its rows; every apply sees the same rows."""

    def test_mask_of_a_masked_lattice_view_is_one_mask(self):
        I = hyperbolic_cross(3, 0.5, 8.0)
        lat = Rank1Lattice(dimension=3, generator=np.array([1, 33, 301]), size=1024)
        rng = np.random.default_rng(11)
        outer, inner = rng.integers(0, 1024, 300), rng.integers(0, 300, 500)
        assert len(np.unique(outer)) < 300 and len(np.unique(inner)) < 500  # duplicates
        twice = LatticeOperator(lat, I).masked(outer).masked(inner)
        once = LatticeOperator(lat, I).masked(outer[inner])
        assert np.array_equal(twice.rows, outer[inner])
        a, f, w = crandn(rng, len(I)), crandn(rng, 500), rng.random(500)
        x = rng.standard_normal(len(I))
        assert np.array_equal(twice.forward(a), once.forward(a))
        assert np.array_equal(twice.adjoint(f), once.adjoint(f))
        assert np.array_equal(twice.real_normal(w)(x), once.real_normal(w)(x))
        assert np.array_equal(twice.real_adjoint(f.real), once.real_adjoint(f.real))

    @pytest.mark.parametrize("I", [
        hyperbolic_cross(2, 0.5, 6.0),
        IndexSet(dimension=2, frequencies=[[0, 0], [1, 2], [-3, 1]]),
    ], ids=["real", "complex"])
    def test_masked_dense_operator_is_built_on_the_masked_points(self, I):
        rng = np.random.default_rng(12)
        pts, rows = rng.random((40, 2)), rng.integers(0, 40, 60)
        masked = DenseOperator(pts, I).masked(rows)
        direct = DenseOperator(pts[rows], I)
        assert np.array_equal(masked.points, pts[rows])
        a, f = crandn(rng, len(I)), crandn(rng, 60)
        assert np.array_equal(masked.forward(a), direct.forward(a))
        assert np.array_equal(masked.adjoint(f), direct.adjoint(f))


class TestApplyNormal:
    def test_identity_on_full_reconstructing_lattice(self):
        rng = np.random.default_rng(3)
        I = hyperbolic_cross(2, 1.0, 3.0)
        lat = search_generator(I, rng_seed=9)
        op = LatticeOperator(lat, I)
        w = np.full(lat.size, 1.0 / lat.size)
        a = crandn(rng, len(I))
        assert np.max(np.abs(op.normal(w)(a) - a)) < 1e-12 * np.max(np.abs(a))

    def test_zero_weights_give_zero(self):
        I = hyperbolic_cross(1, 1.0, 2.0)
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=7)
        op = LatticeOperator(lat, I)
        out = op.normal(np.zeros(7))(np.ones(len(I), dtype=complex))
        assert np.all(out == 0)

    def test_negative_weight_rejected(self):
        I = hyperbolic_cross(1, 1.0, 2.0)
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=7)
        op = LatticeOperator(lat, I)
        with pytest.raises(ValueError, match="nonnegative"):
            op.normal(np.full(7, -0.1))(np.ones(len(I), dtype=complex))

    def test_masked_matches_assembled_gram(self):
        rng = np.random.default_rng(4)
        I = hyperbolic_cross(2, 1.0, 2.0)
        lat = Rank1Lattice(dimension=2, generator=np.array([5, 8]), size=37)
        rows = rng.integers(0, 37, size=50)
        w = rng.random(50)
        op = LatticeOperator(lat, I).masked(rows)
        L = DenseOperator(lat.points(), I, rows=rows).dense_matrix()
        G = L.conj().T @ (w[:, None] * L)
        a = crandn(rng, len(I))
        got, want = op.normal(w)(a), G @ a
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lat, I = random_instance(rng)
            w = rng.random(lat.size)
            op = LatticeOperator(lat, I)
            a, b = crandn(rng, len(I)), crandn(rng, len(I))
            lhs = np.vdot(b, op.normal(w)(a))
            rhs = np.conj(np.vdot(a, op.normal(w)(b)))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestAdjointnessAndAgreement:
    @pytest.mark.parametrize("masked", [False, True])
    def test_adjointness_identity(self, masked):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lat, I = random_instance(rng)
            op = LatticeOperator(lat, I)
            if masked:
                op = op.masked(rng.integers(0, lat.size, size=lat.size // 2 + 1))
            a = crandn(rng, len(I))
            f = crandn(rng, op.row_count)
            lhs = np.vdot(f, op.forward(a))
            rhs = np.vdot(op.adjoint(f), a)
            scale = np.linalg.norm(a) * np.linalg.norm(f)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_fft_and_dense_paths_agree_many_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            lat, I = random_instance(rng)
            fft_op = LatticeOperator(lat, I)
            dense_op = DenseOperator(lat.points(), I)
            a = crandn(rng, len(I))
            f = crandn(rng, lat.size)
            fw_f, fw_d = fft_op.forward(a), dense_op.forward(a)
            ad_f, ad_d = fft_op.adjoint(f), dense_op.adjoint(f)
            assert np.max(np.abs(fw_f - fw_d)) <= 1e-11 * max(np.max(np.abs(fw_d)), 1e-30)
            assert np.max(np.abs(ad_f - ad_d)) <= 1e-11 * max(np.max(np.abs(ad_d)), 1e-30)


# primes (the default schedule's first size), 5-smooth sizes and M = 1
_NORMAL_SIZES = [1, 2, 3, 7, 11, 13, 31, 61, 101, 4, 8, 12, 30, 60, 100, 125]


@st.composite
def normal_instances(draw):
    """An operator (full or masked), weights with zeros, and coefficients.

    The generator is either searched (reconstructing) or drawn at random, in
    which case residues usually collide; masks repeat rows.
    """
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kmax = draw(st.integers(1, 4))
    freqs = np.unique(rng.integers(-kmax, kmax + 1, size=(draw(st.integers(1, 30)), d)),
                      axis=0)
    I = IndexSet(dimension=d, frequencies=freqs)
    if draw(st.booleans()):
        lat = search_generator(I, rng_seed=int(rng.integers(0, 2**31)))
    else:
        M = draw(st.sampled_from(_NORMAL_SIZES))
        lat = Rank1Lattice(dimension=d, generator=rng.integers(0, M, size=d), size=M)
    op = LatticeOperator(lat, I)
    if draw(st.booleans()):
        op = op.masked(rng.integers(0, lat.size, size=draw(st.integers(0, 3 * lat.size))))
    w = rng.random(op.row_count) * (rng.random(op.row_count) < draw(st.floats(0.0, 1.0)))
    return op, w, crandn(rng, len(I))


class TestNormalOperator:
    """The lattice normal operator against forward/adjoint and the dense Gram."""

    @settings(max_examples=150, deadline=None)
    @given(normal_instances())
    @example((LatticeOperator(Rank1Lattice(dimension=1, generator=np.array([1]), size=7),
                              IndexSet(dimension=1, frequencies=[[-1], [0], [3]])),
              np.arange(7.0), np.array([1.0, 2j, -1.0])))
    def test_matches_adjoint_forward_and_dense_gram(self, instance):
        op, w, a = instance
        got = op.normal(w)(a)
        # every entry of L* W L a is bounded by sum(w) * sum(|a|)
        scale = np.sum(w) * np.sum(np.abs(a))
        assert np.max(np.abs(got - op.adjoint(w * op.forward(a)))) <= 1e-12 * scale
        L = op.dense_matrix()
        gram = L.conj().T @ (w[:, None] * L)
        assert np.max(np.abs(got - gram @ a)) <= 1e-12 * scale

    def test_reusable_across_calls(self):
        rng = np.random.default_rng(8)
        lat, I = random_instance(rng, max_m=30)
        op = LatticeOperator(lat, I).masked(rng.integers(0, lat.size, size=2 * lat.size))
        w = rng.random(op.row_count)
        normal = op.normal(w)
        vectors = [crandn(rng, len(I)) for _ in range(3)]
        first = [normal(a) for a in vectors]
        for a, out in zip(vectors, first):
            assert np.array_equal(normal(a), out)
            assert np.array_equal(op.normal(w)(a), out)

    def test_rejects_bad_weights_and_coefficients(self):
        I = hyperbolic_cross(1, 1.0, 2.0)
        op = LatticeOperator(Rank1Lattice(dimension=1, generator=np.array([1]), size=7), I)
        with pytest.raises(ValueError, match="nonnegative"):
            op.normal(np.full(7, -0.1))
        with pytest.raises(ValueError, match="weights"):
            op.normal(np.ones(6))
        with pytest.raises(ValueError, match="length"):
            op.normal(np.ones(7))(np.ones(len(I) + 1))


@st.composite
def character_instances(draw):
    """Points, an index set and a row list (with duplicates) for the dense build.

    Either a hyperbolic cross, symmetric, so the real rows are built by
    recursion and only k = 0 lacks a parent, or an explicit set of small
    offsets around a possibly large shift, which is usually not symmetric
    (the complex rows of ``_characters``) and, when it is, usually not
    downward closed, so several real rows have no parent.
    """
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        I = hyperbolic_cross(d, draw(st.sampled_from([0.5, 1.0])),
                             draw(st.floats(1.5, 60.0 if d == 1 else 8.0)))
    else:
        shift = draw(st.lists(st.integers(-100, 100), min_size=d, max_size=d))
        offsets = draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=1, max_size=40, unique_by=tuple))
        I = IndexSet(dimension=d, frequencies=np.array(offsets) + shift)
    n = draw(st.integers(1, 30))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, d))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return pts, I, np.array(rows)


class TestDenseCharacters:
    """The dense builds, real and complex, and the copy-free adjoint against np.exp."""

    @settings(max_examples=80, deadline=None)
    @given(character_instances())
    @example((np.array([[0.1], [0.7], [0.35]]),
              IndexSet(dimension=1,
                       frequencies=[[-100], [-3], [4], [5], [6], [9], [97]]),
              np.array([2, 0, 2, 2, 1])))
    def test_build_and_adjoint_match_exp(self, instance):
        pts, I, rows = instance
        op = DenseOperator(pts, I, rows=rows)
        want = np.exp(2j * np.pi * (pts[rows] @ I.frequencies.T))
        assert np.max(np.abs(op.dense_matrix() - want)) <= 1e-12
        rng = np.random.default_rng(len(rows))
        f = crandn(rng, len(rows))
        err = np.max(np.abs(op.adjoint(f) - want.conj().T @ f))
        assert err <= 1e-12 * np.sum(np.abs(f))
        a = crandn(rng, len(I))
        assert np.max(np.abs(op.forward(a) - want @ a)) <= 1e-12 * np.sum(np.abs(a))

    def test_lattice_dense_matrix_uses_the_same_build(self):
        I = hyperbolic_cross(3, 0.5, 8.0)
        lat = Rank1Lattice(dimension=3, generator=np.array([1, 33, 579]), size=1021)
        rows = np.array([5, 5, 900, 0, 17])
        got = LatticeOperator(lat, I).masked(rows).dense_matrix()
        want = DenseOperator(lat.points(), I, rows=rows).dense_matrix()
        assert np.array_equal(got, want)


def cross_without_zero(d, gamma, R):
    """A symmetric set of even size: a hyperbolic cross less k = 0."""
    freqs = hyperbolic_cross(d, gamma, R).frequencies
    return IndexSet(dimension=d, frequencies=freqs[np.any(freqs, axis=1)])


@st.composite
def real_normal_instances(draw):
    """A symmetric set on a lattice (full or masked), weights and real coordinates.

    Like ``normal_instances``, with the set closed under k -> -k.  The sizes
    add even ones that are not 5-smooth, where a residue may sit at the
    self-mirrored slot M/2.
    """
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kmax = draw(st.integers(1, 4))
    half = rng.integers(-kmax, kmax + 1, size=(draw(st.integers(1, 15)), d))
    I = IndexSet(dimension=d, frequencies=np.unique(np.vstack((half, -half)), axis=0))
    if draw(st.booleans()):
        lat = search_generator(I, rng_seed=int(rng.integers(0, 2**31)))
    else:
        M = draw(st.sampled_from(_NORMAL_SIZES + [14, 22, 62]))
        lat = Rank1Lattice(dimension=d, generator=rng.integers(0, M, size=d), size=M)
    op = LatticeOperator(lat, I)
    if draw(st.booleans()):
        op = op.masked(rng.integers(0, lat.size, size=draw(st.integers(0, 3 * lat.size))))
    w = rng.random(op.row_count) * (rng.random(op.row_count) < draw(st.floats(0.0, 1.0)))
    return op, w, rng.standard_normal(len(I))


def complex_normal_in_real_basis(op, w, x):
    """The oracle: ``T L* W L T^H x`` through the complex normal operator."""
    want = _to_real(op.normal(w)(_from_real(x)))
    assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want), initial=1.0)
    return want.real


class TestRealBasis:
    """The real-basis matrix and applies against the complex path."""

    @pytest.mark.parametrize("I", [
        hyperbolic_cross(3, 0.5, 8.0),  # odd |I|: k = 0 present
        cross_without_zero(2, 0.5, 6.0),  # even |I|: no k = 0
        IndexSet(dimension=2, frequencies=[[-2, -1], [0, -3], [0, 0], [0, 3], [2, 1]]),
    ], ids=["odd", "even", "missing-parents"])
    def test_real_rows_and_complex_products_match_characters(self, I):
        rng = np.random.default_rng(len(I))
        m, h, n = len(I), len(I) // 2, 40
        pts = rng.random((n, I.dimension))
        C = _characters(pts, I.frequencies).T  # L^T, complex
        op = DenseOperator(pts, I)
        B = op._rows
        assert B.dtype == np.float64 and B.shape == (m, n)
        assert np.max(np.abs(B[:h] - np.sqrt(2) * C[:h].real)) <= 1e-13
        assert np.max(np.abs(B[m - h:] - np.sqrt(2) * C[:h].imag)) <= 1e-13
        assert np.all(B[h:m - h] == 1.0)
        assert np.max(np.abs(op.dense_matrix() - C.T)) <= 1e-13
        a, f = crandn(rng, m), crandn(rng, n)
        assert np.max(np.abs(op.forward(a) - a @ C)) <= 1e-13 * np.sum(np.abs(a))
        assert np.max(np.abs(op.adjoint(f) - C.conj() @ f)) <= 1e-13 * np.sum(np.abs(f))
        w, x = rng.random(n), rng.standard_normal(m)
        want = _to_real(C.conj() @ (w * (_from_real(x) @ C)))
        scale = np.sum(w) * np.sum(np.abs(x))
        assert np.max(np.abs(want.imag)) <= 1e-13 * scale
        assert np.max(np.abs(op.real_normal(w)(x) - want.real)) <= 1e-13 * scale
        want = _to_real(C.conj() @ f.real)
        got = op.real_adjoint(f.real)
        assert np.max(np.abs(got - want.real)) <= 1e-13 * np.sum(np.abs(f.real))

    @pytest.mark.parametrize("M, z", [
        (375, [1, 7, 49]),  # 5-smooth, odd
        (384, [1, 5, 25]),  # 5-smooth, even: slot M/2 is the Nyquist slot
        (61, [1, 11, 21]),  # prime
        (30, [1, 4, 7]),  # 5-smooth, small: residues collide
        (31, [1, 2, 5]),  # prime, small: residues collide
        # later sizes of the default schedule
        (1024, [1, 33, 301]),
        (1440, [1, 37, 720]),  # +-(0, 0, 1) at M/2, the Nyquist slot
        (12800, [1, 113, 6007]),
        (32400, [1, 181, 6007]),
    ])
    @pytest.mark.parametrize("masked", [False, True])
    def test_hermitian_normal_matches_complex_normal(self, M, z, masked):
        I = hyperbolic_cross(3, 0.5, 8.0)
        rng = np.random.default_rng(M)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M), I)
        if masked:
            op = op.masked(rng.integers(0, M, size=2 * M))  # duplicate rows
        w, x = rng.random(op.row_count), rng.standard_normal(len(I))
        want = complex_normal_in_real_basis(op, w, x)
        got = op.real_normal(w)(x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("M", [30, 31])
    def test_small_lattices_collide_k_with_minus_k_prime(self, M):
        # the collisions the Hermitian scatter must add up: some k and k' != k
        # with r_k = -r_k' mod M, and pairs sharing a slot with equal sign
        I = hyperbolic_cross(3, 0.5, 8.0)
        z = {30: [1, 4, 7], 31: [1, 2, 5]}[M]
        r = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M), I)._res
        h = len(I) // 2
        centred = np.where(2 * r[:h] <= M, r[:h], r[:h] - M)
        pos, neg = set(centred[centred > 0]), set(-centred[centred < 0])
        assert pos & neg
        assert len(np.unique(centred)) < h

    def test_residue_at_half_m(self):
        # M = 14 is even and not 5-smooth: a residue at M/2 is its own mirror,
        # so the Hermitian scatter counts its pair twice at the Nyquist slot
        I = hyperbolic_cross(3, 0.5, 8.0)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array([1, 3, 5]), size=14), I)
        assert np.any(2 * op._res == 14)
        rng = np.random.default_rng(14)
        w, x = rng.random(14), rng.standard_normal(len(I))
        want = complex_normal_in_real_basis(op, w, x)
        assert np.linalg.norm(op.real_normal(w)(x) - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=150, deadline=None)
    @given(real_normal_instances())
    def test_hermitian_normal_on_random_symmetric_sets(self, instance):
        op, w, x = instance
        want = complex_normal_in_real_basis(op, w, x)
        got = op.real_normal(w)(x)
        scale = np.sum(w) * np.sum(np.abs(x))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.array_equal(op.real_normal(w)(x), got)  # buffers reused alike

    def test_real_basis_needs_a_symmetric_set(self):
        I = IndexSet(dimension=1, frequencies=[[-1], [0], [2]])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=7)
        for op in (LatticeOperator(lat, I), DenseOperator(lat.points(), I)):
            with pytest.raises(ValueError, match="symmetric"):
                op.real_normal(np.ones(7))
            with pytest.raises(ValueError, match="symmetric"):
                op.real_adjoint(np.ones(7))
        op = LatticeOperator(lat, hyperbolic_cross(1, 1.0, 2.0))
        with pytest.raises(TypeError):
            op.real_normal(np.ones(7))(np.ones(len(op.index_set), dtype=complex))


# Lattices for hyperbolic_cross(3, 0.5, 8.0) with Nyquist residues (14, 384,
# 1440), colliding residues (30, 31), primes and 5-smooth sizes, each with
# the sha256 prefix of its ``_real_slots`` index and gather arrays: the solver's
# real slots, pinned bit for bit
_MAP_LATTICES = [
    (14, [1, 3, 5], "47235ec3ce95616001eaadcdd90d0e99"),
    (30, [1, 4, 7], "a2e7d75be4f7d5864508d196c8e64c84"),
    (31, [1, 2, 5], "5356a159c30f14339de77ae29faa8e01"),
    (61, [1, 11, 21], "5a3e7d23aa3e0e77759a3b437fd35acc"),
    (375, [1, 7, 49], "80ccdf32e2a0f63d5d8ceb22844507fb"),
    (384, [1, 5, 25], "9d1564714f03f5663a55371a6a15e23f"),
    (1024, [1, 33, 301], "d4838848e3a8de89fa8018d7abda1f86"),
    (1440, [1, 37, 720], "f323494fe96bef214e390c1229b4c20b"),
    (12800, [1, 113, 6007], "e022e13952acb24f64923cdf46c46906"),
    (32400, [1, 181, 6007], "6d0365c7f66a538caac090cb8f3a6a16"),
]
_MAP_IDS = [f"M={M}" for M, _, _ in _MAP_LATTICES]


class TestRealBasisMap:
    """``LatticeOperator._real_basis``, the lattice's one statement of the real
    basis, and its half-spectrum reading ``_real_slots``."""

    @pytest.mark.parametrize("M, z, digest", _MAP_LATTICES, ids=_MAP_IDS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_each_coordinate_is_its_tone_on_the_realified_characters(self, M, z, digest,
                                                                       masked):
        I = hyperbolic_cross(3, 0.5, 8.0)
        m, h = len(I), len(I) // 2
        lat = Rank1Lattice(dimension=3, generator=np.array(z), size=M)
        op = LatticeOperator(lat, I)
        if masked:
            op = op.masked(np.random.default_rng(M).integers(0, M, size=2 * M))
            assert len(np.unique(op.rows)) < op.row_count  # duplicate rows
        rows = np.arange(M) if op.rows is None else op.rows
        rho, sigma = op._real_basis()
        idx, gather, _ = op._real_slots()
        slot = idx // 2
        factor = np.where(idx % 2, 1j * gather, gather)  # gather = Re(c) + Im(c)
        assert np.all((0 <= slot) & (2 * slot <= M))
        for lo in range(0, len(rows), 4096):  # a few MB at a time
            j = rows[lo:lo + 4096]
            C = _characters(lat.points(j), I.frequencies)
            realified = np.hstack((np.sqrt(2) * C[:, :h].real, C[:, h:m - h].real,
                                   np.sqrt(2) * C[:, :h].imag))
            for t, c in ((rho, sigma), (slot, factor)):  # the map, and on half spectra
                tone = (c * np.exp(2j * np.pi * (np.outer(j, t) % M) / M)).real
                assert np.max(np.abs(tone - realified)) <= 1e-12

    @pytest.mark.parametrize("M, z, digest", _MAP_LATTICES, ids=_MAP_IDS)
    def test_real_slots_are_pinned(self, M, z, digest):
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M),
                             hyperbolic_cross(3, 0.5, 8.0))
        idx, gather, _ = op._real_slots()
        data = idx.astype("<i8").tobytes() + gather.astype("<f8").tobytes()
        assert hashlib.sha256(data).hexdigest()[:32] == digest


class TestLatticeRealForms:
    """The lattice's real rows and Gram beyond what the sparsifier and the
    certificates run (``tests/test_subsampling.py``, ``tests/test_mz.py``)."""

    @pytest.mark.parametrize("I", [
        hyperbolic_cross(3, 0.5, 8.0),  # odd |I|: k = 0 present
        cross_without_zero(2, 0.5, 6.0),  # even |I|: no k = 0
    ], ids=["odd", "even"])
    def test_full_lattice_rows_match_the_dense_matrix(self, I):
        rng = np.random.default_rng(len(I))
        lat = search_generator(I, rng_seed=5)
        s = rng.random(lat.size)
        rows = DenseOperator(lat.points(), I)._rows.T * s[:, None]  # diag(s) L T^H
        row, products = LatticeOperator(lat, I).real_rows(s)
        np.testing.assert_allclose([row(i) for i in range(lat.size)], rows,
                                   rtol=0, atol=1e-13)
        x, y = rng.standard_normal((2, len(I)))
        for got, want in zip(products(x, y), (rows @ x, rows @ y)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_real_forms_need_a_symmetric_set(self):
        I = IndexSet(dimension=1, frequencies=[[0], [1], [2]])
        op = LatticeOperator(Rank1Lattice(1, np.array([1]), 5), I)
        for method in (op.real_gram, op.real_rows):
            with pytest.raises(ValueError, match="symmetric index set"):
                method(np.ones(5))


class TestAbstractInterface:
    @pytest.mark.parametrize("call", [
        lambda op: op.row_count,
        lambda op: op.forward(np.zeros(1)),
        lambda op: op.adjoint(np.zeros(1)),
        lambda op: op.masked(np.zeros(1, dtype=np.int64)),
        lambda op: op.dense_matrix(),
    ], ids=["row_count", "forward", "adjoint", "masked", "dense_matrix"])
    def test_bare_subclass_raises(self, call):
        class Bare(SystemOperator):
            pass

        with pytest.raises(NotImplementedError):
            call(Bare())


def relative_error(got, want):
    """``||got - want|| / ||want||``, scaled so that neither norm overflows."""
    scale = np.max(np.abs(want))
    return np.linalg.norm((got - want) / scale) / np.linalg.norm(want / scale)


def base_normal_equations(op, w, f):
    """The oracle: the base class's ``real_normal(w)``, through the complex
    ``normal``, and ``real_adjoint(w * f)``, through the complex ``adjoint``."""
    return SystemOperator.real_normal(op, w), SystemOperator.real_adjoint(op, w * f)


class TestRealNormalEquations:
    """The lattice's real normal operator and its one-``rfft`` right-hand side
    ``real_adjoint(w * f)`` against the base default."""

    @staticmethod
    def assert_close(op, w, f, x):
        apply, rhs = op.real_normal(w), op.real_adjoint(w * f)
        want_apply, want_rhs = base_normal_equations(op, w, f)
        assert relative_error(apply(x), want_apply(x)) <= 1e-13
        assert relative_error(rhs, want_rhs) <= 1e-13

    @pytest.mark.parametrize("M, z", [
        (375, [1, 7, 49]),  # 5-smooth, odd
        (384, [1, 5, 25]),  # 5-smooth, even
        (31, [1, 2, 5]),  # prime, small: residues collide
        (61, [1, 11, 21]),  # prime
        (12659, [1, 1277, 5903]),  # prime
        # later sizes of the default schedule: 5-smooth
        (1024, [1, 33, 301]),
        (1440, [1, 37, 720]),  # +-(0, 0, 1) at M/2
        (12800, [1, 113, 6007]),
        (32400, [1, 181, 6007]),
    ])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 2.0**60, 2.0**-60, 1e12, 1e-12, 1e200, 1e-200])
    def test_matches_two_transforms(self, M, z, masked, scale):
        I = hyperbolic_cross(3, 0.5, 8.0)
        rng = np.random.default_rng(M)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M), I)
        if masked:
            op = op.masked(rng.integers(0, M, size=2 * M))  # duplicate rows
            assert len(np.unique(op.rows)) < op.row_count
        w, f = rng.random(op.row_count), rng.standard_normal(op.row_count)
        self.assert_close(op, w, scale * f, rng.standard_normal(len(I)))

    @pytest.mark.parametrize("M, z", [
        (61, [1, 11, 21]),
        (12659, [1, 1277, 5903]),  # prime
    ])
    @pytest.mark.parametrize("masked", [False, True])
    def test_zero_values_give_an_exactly_zero_rhs(self, M, z, masked):
        I = hyperbolic_cross(3, 0.5, 8.0)
        rng = np.random.default_rng(M)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M), I)
        if masked:
            op = op.masked(rng.integers(0, M, size=2 * M))
        w = rng.random(op.row_count)
        apply, rhs = op.real_normal(w), op.real_adjoint(w * np.zeros(op.row_count))
        assert rhs.shape == (len(I),) and not rhs.any()
        x = rng.standard_normal(len(I))
        want = base_normal_equations(op, w, np.zeros(op.row_count))[0](x)
        assert np.linalg.norm(apply(x) - want) <= 1e-13 * np.linalg.norm(want)
        a, diag = least_squares(op, w, np.zeros(op.row_count))
        assert diag.iterations == 0 and not a.any()

    @pytest.mark.parametrize("M, z", [(384, [1, 5, 25]), (61, [1, 11, 21])])
    def test_one_nonzero_sample(self, M, z):
        I = hyperbolic_cross(3, 0.5, 8.0)
        rng = np.random.default_rng(M)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array(z), size=M), I)
        op = op.masked(rng.integers(0, M, size=2 * M))
        f = np.zeros(op.row_count)
        f[7] = 3.5
        self.assert_close(op, rng.random(op.row_count), f, rng.standard_normal(len(I)))

    def test_residue_at_half_m(self):
        # M = 14 is even and not 5-smooth: a residue at the self-mirrored
        # slot M/2, in the normal operator and the right-hand side
        I = hyperbolic_cross(3, 0.5, 8.0)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array([1, 3, 5]), size=14), I)
        assert np.any(2 * op._res == 14)
        rng = np.random.default_rng(14)
        w, f, x = rng.random(14), rng.standard_normal(14), rng.standard_normal(len(I))
        self.assert_close(op, w, f, x)

    @settings(max_examples=100, deadline=None)
    @given(real_normal_instances())
    def test_on_random_symmetric_sets(self, instance):
        op, w, x = instance
        f = np.random.default_rng(len(w)).standard_normal(op.row_count)
        apply, rhs = op.real_normal(w), op.real_adjoint(w * f)
        want_apply, want_rhs = base_normal_equations(op, w, f)
        scale = np.sum(w) * np.sum(np.abs(x))
        assert np.max(np.abs(apply(x) - want_apply(x)), initial=0.0) <= 1e-12 * scale
        bound = 1e-12 * np.sum(np.abs(w * f))
        assert np.max(np.abs(rhs - want_rhs), initial=0.0) <= bound

    def test_needs_a_symmetric_set_and_real_values(self):
        I = IndexSet(dimension=1, frequencies=[[-1], [0], [2]])
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=7)
        for op in (LatticeOperator(lat, I), DenseOperator(lat.points(), I)):
            with pytest.raises(ValueError, match="symmetric"):
                op.real_adjoint(np.ones(7))
        op = LatticeOperator(lat, hyperbolic_cross(1, 1.0, 2.0))
        with pytest.raises(TypeError):
            op.real_adjoint(np.ones(7, dtype=complex))
        with pytest.raises(ValueError, match="value vector"):
            op.real_adjoint(np.ones(6))
        with pytest.raises(ValueError, match="weights"):
            op.real_normal(np.ones(6))


class TestTransformCounts:
    """The lattice normal operator is forward, point weights, adjoint: no
    transform to build it, two per apply, one ``rfft`` per real right-hand side."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @staticmethod
    def operators():
        I = hyperbolic_cross(3, 0.5, 8.0)
        op = LatticeOperator(Rank1Lattice(dimension=3, generator=np.array([1, 7, 49]), size=375), I)
        rows = np.random.default_rng(375).integers(0, 375, size=750)
        return op, op.masked(rows)

    @pytest.mark.parametrize("masked", [False, True])
    def test_building_the_normal_operators_runs_no_transform(self, transforms, masked):
        op = self.operators()[masked]
        rng = np.random.default_rng(1)
        w, m = rng.random(op.row_count), len(op.index_set)
        normal, real_normal = op.normal(w), op.real_normal(w)
        assert transforms == []
        normal(crandn(rng, m))
        assert transforms == ["ifft", "fft"]
        transforms.clear()
        real_normal(rng.standard_normal(m))
        assert transforms == ["irfft", "rfft"]

    @pytest.mark.parametrize("masked", [False, True])
    def test_real_adjoint_runs_one_rfft(self, transforms, masked):
        op = self.operators()[masked]
        op.real_adjoint(np.random.default_rng(2).standard_normal(op.row_count))
        assert transforms == ["rfft"]

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_real_lattice_solve_runs_one_plus_two_per_iteration(self, transforms, masked, k):
        op = self.operators()[masked]
        rng = np.random.default_rng(3)
        w, f = rng.random(op.row_count), rng.standard_normal(op.row_count)
        _, diag = least_squares(op, w, f, SolverConfig(max_iterations=k, residual_tolerance=0.0))
        assert diag.iterations == k
        assert transforms == ["rfft"] + ["irfft", "rfft"] * k


@pytest.mark.slow
class TestRuntimeScaling:
    def test_forward_cost_independent_of_index_size(self):
        # doubling M at fixed |I| must not blow past ~2.4x (O(M log M) path);
        # the two sizes alternate trial by trial so machine drift hits both.
        # A forward holds three complex M-vectors, 0.75 and 1.5 MiB here:
        # both fit in a 2 MiB L2 cache, so the ratio times the FFT and not
        # the larger size spilling out of L2
        I = hyperbolic_cross(2, 1.0, 8.0)
        a = np.ones(len(I), dtype=complex)
        ops = []
        for M in (1 << 14, 1 << 15):
            lat = Rank1Lattice(
                dimension=2, generator=np.array([1, 104729]), size=M)
            ops.append(LatticeOperator(lat, I))
            ops[-1].forward(a)  # warm up
        best = [np.inf, np.inf]
        for _ in range(15):
            for i, op in enumerate(ops):
                best[i] = min(best[i], _timed(op.forward, a))
        ratio = best[1] / best[0]
        assert ratio < 2.4, f"doubling M scaled runtime by {ratio:.2f}"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
