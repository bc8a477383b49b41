"""Density construction, random draws, and sparsification certificates."""

import bisect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latsub.mz
import latsub.subsampling
from latsub.experiments import _derived_seed
from latsub.fourier import DenseOperator
from latsub.index_sets import (
    IndexSet,
    embedding_eigenvalues,
    hyperbolic_cross,
    select_largest_eigenvalues,
)
from latsub.lattice import (
    Rank1Lattice,
    SamplePlan,
    lattice_points,
    residues,
    search_generator,
)
from latsub.mz import SpectralBounds, mz_constants
from latsub.solver import operator_for
from latsub.subsampling import (
    _FLUSH,
    DensityWeights,
    SpectralCertificateError,
    SubsampleSelection,
    _barrier_greedy,
    _dense_scorer,
    bss_select_plain,
    bss_select_weighted,
    bss_subsample,
    density_weights,
    kappa,
    plain_bss_subsample,
    random_subsample,
    random_subsample_size,
    _stage1_rows,
)


def lattice_scorer(selection, I):
    """The plain greedy's real scorer on a lattice draw, as ``plain_bss_subsample`` builds it."""
    return operator_for(selection, I).real_rows(np.sqrt(selection.reweights))


def literal_density_oracle(plan, I, I_mz, s):
    """Direct evaluation of the three-term density with complex characters.

    Equal thirds of the Christoffel density of I, the eigenvalue-weighted
    density of the tail ``I_MZ \\ I`` and the quadrature density; with an
    empty tail the remaining two terms are renormalized.
    """
    pts, w = plan.points, plan.weights
    chars = np.exp(2j * np.pi * (pts @ I.frequencies.T))
    n_vals = np.sum(np.abs(chars) ** 2, axis=1)
    terms = [w * n_vals / np.dot(w, n_vals), w / w.sum()]
    inner = {tuple(k) for k in I.frequencies}
    tail = np.array([k for k in I_mz.frequencies if tuple(k) not in inner],
                    dtype=np.int64).reshape(-1, I.dimension)
    if len(tail):
        lam = embedding_eigenvalues(tail, s)
        tail_chars = np.exp(2j * np.pi * (pts @ tail.T))
        t_vals = (np.abs(tail_chars) ** 2) @ lam
        terms.insert(1, w * t_vals / np.dot(w, t_vals))
    return sum(terms) / len(terms)


def tight_plan(d, gamma, R, seed):
    I = hyperbolic_cross(d, gamma, R)
    lat = search_generator(I, rng_seed=seed)
    plan = SamplePlan(weights=np.full(lat.size, 1 / lat.size),
                      bounds=SpectralBounds(1.0, 1.0), lattice=lat)
    return I, lat, plan


class TestDensityWeights:
    def test_uniform_lattice_gives_uniform_density(self):
        I, lat, plan = tight_plan(2, 1.0, 3.0, seed=0)
        rho = density_weights(plan)
        assert np.max(np.abs(rho.rho - 1.0 / lat.size)) < 1e-15

    def test_single_point(self):
        plan = SamplePlan(points=[[0.25]], weights=[0.7])
        rho = density_weights(plan)
        assert rho.rho == pytest.approx([1.0])

    def test_nonuniform_weights_collapse_to_weight_density(self):
        rng = np.random.default_rng(1)
        pts = rng.random((20, 2))
        w = rng.random(20)
        plan = SamplePlan(points=pts, weights=w)
        inner = hyperbolic_cross(2, 1.0, 2.0)
        outer = hyperbolic_cross(2, 1.0, 4.0)
        rho = density_weights(plan)
        assert np.allclose(rho.rho, w / w.sum(), rtol=1e-13)
        oracle = literal_density_oracle(plan, inner, outer, 1.25)
        assert np.allclose(rho.rho, oracle, rtol=1e-12)

    def test_empty_tail_matches_two_term_form(self):
        rng = np.random.default_rng(2)
        plan = SamplePlan(points=rng.random((9, 1)), weights=rng.random(9))
        I = hyperbolic_cross(1, 1.0, 3.0)
        rho = density_weights(plan)
        oracle = literal_density_oracle(plan, I, I, 1.0)
        assert np.allclose(rho.rho, oracle, rtol=1e-13)
        assert rho.rho.sum() == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight_points_get_zero_density(self):
        w = np.array([0.0, 0.3, 0.0, 0.7])
        plan = SamplePlan(points=np.linspace(0, 0.9, 4)[:, None], weights=w)
        rho = density_weights(plan)
        assert np.all((rho.rho == 0) == (w == 0))

    def test_all_zero_weights_rejected(self):
        plan = SamplePlan(points=[[0.0], [0.5]], weights=[0.0, 0.0])
        with pytest.raises(ValueError, match="all-zero"):
            density_weights(plan)

    def test_density_type_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DensityWeights(rho=np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="nonnegative"):
            DensityWeights(rho=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="one-dimensional"):
            DensityWeights(rho=np.full((2, 2), 0.25))


class TestSubsampleSize:
    def test_reference_value(self):
        assert random_subsample_size(1.0, 1.0, 1 / 3, 100, 1.0) == 20179

    def test_single_frequency_small_t(self):
        assert random_subsample_size(1.0, 1.0, 1.0, 1, 0.05) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_subsample_size(0.0, 1.0, 1 / 3, 10, 1.0)
        with pytest.raises(ValueError):
            random_subsample_size(1.0, 1.0, 0.0, 10, 1.0)
        with pytest.raises(ValueError):
            random_subsample_size(1.0, 1.0, 1.5, 10, 1.0)
        with pytest.raises(ValueError):
            random_subsample_size(1.0, 1.0, 0.5, 10, 0.0)
        with pytest.raises(ValueError, match="card_I must be >= 1"):
            random_subsample_size(1.0, 1.0, 0.5, 0, 1.0)


def inverse_cdf_loop(p, n, seed):
    """The element-by-element draw the vectorized one must reproduce."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    if len(set(p.tolist())) == 1:
        return rng.integers(0, len(p), n)
    cdf, total = [], 0.0
    for x in p:
        total += x
        cdf.append(total)
    return np.array([bisect.bisect_right(cdf, u * total) for u in rng.random(n)])


class TestInverseCdfDraw:
    @pytest.mark.parametrize("kind", ["uniform", "random", "heavy", "zeros", "atom"])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 12659])
    def test_matches_loop_bytewise(self, kind, n):
        rng = np.random.default_rng(n)
        p = {
            "uniform": np.full(n, 1.0 / n),
            "random": rng.random(n),
            "heavy": rng.pareto(0.7, n) + 1e-12,
            "zeros": rng.random(n) * (rng.random(n) < 0.5),
            "atom": np.eye(n)[n // 2] + 1e-9 * rng.random(n),
        }[kind]
        if kind == "zeros":
            p[0], p[-1] = 0.0, 1.0
        p = p / p.sum()
        plan = SamplePlan(points=np.arange(n)[:, None] / n, weights=rng.random(n))
        draws = 500
        sel = random_subsample(plan, DensityWeights(rho=p), draws, seed=n)
        want = inverse_cdf_loop(p, draws, seed=n)
        assert np.array_equal(sel.indices, want)
        assert np.all(p[sel.indices] > 0)
        rw = plan.weights[want] / (draws * p[want])
        assert sel.reweights.tobytes() == rw.tobytes()


class TestRandomSubsample:
    def test_single_atom(self):
        plan = SamplePlan(points=[[0.3, 0.4]], weights=[0.6])
        rho = DensityWeights(rho=np.array([1.0]))
        sel = random_subsample(plan, rho, n=5, seed=0)
        assert np.all(sel.indices == 0)
        assert np.allclose(sel.reweights, 0.6 / 5)
        # the reweighted square sum reproduces the plan's exactly
        f_val = 2.7
        assert np.sum(sel.reweights * f_val**2) == pytest.approx(0.6 * f_val**2)

    def test_unbiased_estimator_monte_carlo(self):
        # fixed member of the space: the reweighted discrete square sum has
        # the plan's weighted square sum as its expectation
        I, lat, plan = tight_plan(1, 1.0, 3.0, seed=1)
        rho = density_weights(plan)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(len(I)) + 1j * rng.standard_normal(len(I))
        op = DenseOperator(plan.points, I)
        values_sq = np.abs(op.forward(a)) ** 2
        truth = float(np.sum(plan.weights * values_sq))
        trials = 10_000
        estimates = np.empty(trials)
        for t in range(trials):
            sel = random_subsample(plan, rho, n=4, seed=t)
            estimates[t] = np.sum(sel.reweights * values_sq[sel.indices])
        assert abs(estimates.mean() - truth) <= 0.02 * truth

    @pytest.mark.slow
    def test_unbiased_estimator_tight_tolerance(self):
        # 1e5 independent draws on a tiny instance, 1% relative tolerance
        plan = SamplePlan(points=np.array([[0.0], [0.25], [0.5], [0.75]]),
                          weights=np.array([0.4, 0.1, 0.3, 0.2]))
        I = hyperbolic_cross(1, 1.0, 1.5)
        rho = density_weights(plan)
        values_sq = np.abs(
            DenseOperator(plan.points, I).forward(np.array([0.3, 1.0, -0.7j]))
        ) ** 2
        truth = float(np.sum(plan.weights * values_sq))
        trials = 100_000
        total = 0.0
        for t in range(trials):
            sel = random_subsample(plan, rho, n=2, seed=t)
            total += np.sum(sel.reweights * values_sq[sel.indices])
        assert abs(total / trials - truth) <= 0.01 * truth

    def test_stage_one_stability_rate(self):
        # quick version of the acceptance check: guarantee-level draw counts keep the
        # lower constant above A/2 (well above) in at least 73% of trials
        I, lat, plan = tight_plan(2, 1.0, 3.0, seed=2)  # |I| = 29
        rho = density_weights(plan)
        n = random_subsample_size(1.0, 1.0, 1 / 3, len(I), 1.0)
        hits = 0
        trials = 25
        for t in range(trials):
            sel = random_subsample(plan, rho, n, seed=100 + t)
            if mz_constants(sel.as_plan(), I).A >= 0.5:
                hits += 1
        assert hits / trials >= 0.73

    def test_cardinality_and_duplicates_kept(self):
        I, lat, plan = tight_plan(1, 1.0, 2.0, seed=3)
        rho = density_weights(plan)
        sel = random_subsample(plan, rho, n=4 * lat.size, seed=9)
        assert len(sel) == 4 * lat.size  # duplicates counted
        assert len(np.unique(sel.indices)) <= lat.size

    def test_deterministic_bit_for_bit(self):
        I, lat, plan = tight_plan(2, 1.0, 2.0, seed=4)
        rho = density_weights(plan)
        a = random_subsample(plan, rho, n=57, seed=123)
        b = random_subsample(plan, rho, n=57, seed=123)
        c = random_subsample(plan, rho, n=57, seed=124)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.reweights, b.reweights)
        assert not np.array_equal(a.indices, c.indices)

    @pytest.mark.parametrize("M", [20, 1009, 1367, 12659, 32069, 64151])
    def test_uniform_plan_draws_plain_integers(self, M):
        plan = lattice_points(Rank1Lattice(dimension=1, generator=[1], size=M))
        rho = density_weights(plan)
        n = math.ceil(M / 3)
        for seed in (0, 1, 2**40 + 7):
            sel = random_subsample(plan, rho, n, seed)
            ss = np.random.SeedSequence([seed, 11])
            want = np.random.Generator(np.random.PCG64(ss)).integers(0, M, n)
            assert np.array_equal(sel.indices, want)
            rw = plan.weights[want] / (n * rho.rho[want])
            assert sel.reweights.tobytes() == rw.tobytes()

    def test_zero_probability_points_never_drawn(self):
        # the first and last points carry no mass; the draw follows rho
        w = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.0])
        plan = SamplePlan(points=np.linspace(0, 0.75, 6)[:, None], weights=w)
        rho = density_weights(plan)
        n = 200_000
        sel = random_subsample(plan, rho, n, seed=5)
        freq = np.bincount(sel.indices, minlength=6) / n
        assert freq[0] == 0 and freq[-1] == 0
        assert np.max(np.abs(freq - rho.rho)) < 0.005  # ~5 standard deviations

    def test_cdf_edges_skip_zero_mass(self, monkeypatch):
        # the smallest and largest uniforms a generator can return, on a
        # density whose cumulative sum ends short of 1 and whose ends carry
        # no mass
        edges = np.array([0.0, np.nextafter(1.0, 0.0)])

        class EdgeGenerator:
            def __init__(self, bit_generator):
                pass

            def random(self, n):
                return np.resize(edges, n)

        monkeypatch.setattr(np.random, "Generator", EdgeGenerator)
        rho = DensityWeights(rho=np.array([0.0, 0.3, 0.7 - 1e-13, 0.0]))
        plan = SamplePlan(points=np.linspace(0, 0.75, 4)[:, None], weights=rho.rho)
        sel = random_subsample(plan, rho, n=2, seed=0)
        assert sel.indices.tolist() == [1, 2]

    def test_rejects_empty_draw(self):
        plan = SamplePlan(points=[[0.0], [0.5]], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="n must be >= 1"):
            random_subsample(plan, density_weights(plan), n=0, seed=0)

    def test_selection_validation(self):
        plan = SamplePlan(points=[[0.0], [0.5]], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="aligned 1-d arrays"):
            SubsampleSelection(parent=plan, indices=[0, 1], reweights=[1.0], stage="random")
        with pytest.raises(ValueError, match="out of range"):
            SubsampleSelection(parent=plan, indices=[0, 2], reweights=[1.0, 1.0],
                               stage="random")
        with pytest.raises(ValueError, match="reweights must be nonnegative"):
            SubsampleSelection(parent=plan, indices=[0, 1], reweights=[1.0, -1.0],
                               stage="random")

    def test_rejects_density_of_another_plan(self):
        plan = SamplePlan(points=[[0.0], [0.5]], weights=[0.5, 0.5])
        rho = DensityWeights(rho=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="density length does not match"):
            random_subsample(plan, rho, n=4, seed=0)


class TestKappa:
    def test_tight_case(self):
        assert kappa(1.0, 1.0) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-15)

    def test_ratio_three(self):
        assert kappa(1.0, 3.0) == pytest.approx(5.0 + math.sqrt(24.0), rel=1e-15)

    def test_monotone_in_upper_bound(self):
        vals = [kappa(1.0, b) for b in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert vals == sorted(vals)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            kappa(0.0, 1.0)
        with pytest.raises(ValueError):
            kappa(2.0, 1.0)


def stage1_selection(d, gamma, R, seed, n_factor=None):
    """A stage-1 draw from a tight lattice plan, n at the guarantee level."""
    I, lat, plan = tight_plan(d, gamma, R, seed)
    rho = density_weights(plan)
    if n_factor is None:
        n = random_subsample_size(1.0, 1.0, 1 / 3, len(I), 1.0)
    else:
        n = math.ceil(n_factor * len(I) * (math.log(len(I)) + 1))
    sel = random_subsample(plan, rho, n, seed=seed)
    return I, sel


class TestWeightedSparsification:
    def test_orthonormal_rows_trivial_branch(self):
        # nothing to remove: all rows kept with unit scalars
        m = 6
        rows = np.eye(m, dtype=complex)
        chosen, t = bss_select_weighted(rows, b=16.0)
        assert np.array_equal(chosen, np.arange(m))
        assert np.all(t == 1.0)

    def test_duplicated_basis_rows(self):
        # each basis row twice with weight 1/2: tight frame, kept whole
        m = 8
        rows = np.vstack([np.eye(m), np.eye(m)]) / math.sqrt(2)
        chosen, t = bss_select_weighted(rows, b=16.0)
        gram = (rows[chosen].conj().T * t[chosen]) @ rows[chosen]
        lam = np.linalg.eigvalsh(gram)
        assert len(chosen) <= math.ceil(16 * m)
        assert lam[0] >= 0.5

    @staticmethod
    def rank_deficient_rows(m, n, seed):
        """n random complex rows in C^m whose last coordinate is 0."""
        rng = np.random.default_rng(seed)
        rows = np.zeros((n, m), dtype=complex)
        rows[:, :-1] = rng.standard_normal((n, m - 1)) + 1j * rng.standard_normal((n, m - 1))
        return rows

    @pytest.mark.parametrize("m, b", [(3, 2.0), (4, 2.0), (5, 3.0)])
    def test_rank_deficient_rows_complete_by_halving_the_lower_step(self, m, b):
        # the missing direction keeps a 0 eigenvalue, and the lower barrier
        # starts at -m sqrt(b) and must stay below it: with unit steps it
        # would reach 0 by step ceil(m sqrt(b)) < ceil(b m), so completing
        # all ceil(b m) steps needs the halved lower increments
        q = math.ceil(b * m)
        assert math.ceil(m * math.sqrt(b)) < q
        rows = self.rank_deficient_rows(m, 10 * m, seed=m)
        chosen, t = bss_select_weighted(rows, b)
        assert 0 < len(chosen) <= q
        assert np.all(t[chosen] > 0) and np.count_nonzero(t) == len(chosen)
        gram = (rows[chosen].conj().T * t[chosen]) @ rows[chosen]
        lam = np.linalg.eigvalsh(gram)
        assert abs(lam[0]) <= 1e-12 * lam[-1] and lam[1] > 0

    @pytest.mark.parametrize("b", [1.0, 0.5])
    def test_b_must_exceed_1(self, b):
        # at b <= 1 the upper barrier's step (sqrt b - 1) / (b + sqrt b) is not positive
        with pytest.raises(ValueError, match=f"b must exceed 1, got {b}"):
            bss_select_weighted(np.eye(2, dtype=complex), b)

    @pytest.mark.parametrize("m, b, step", [(2, 16.0, 10), (3, 8.0, 14)])
    def test_rank_deficient_rows_stall_the_greedy(self, m, b, step):
        # many steps per dimension: the lower barrier comes within the
        # smallest halved increment (2^-11) of the 0 eigenvalue first
        rows = self.rank_deficient_rows(m, 20 * m, seed=0)
        q = math.ceil(b * m)
        with pytest.raises(SpectralCertificateError,
                           match=f"barrier greedy stalled at step {step} of {q}"):
            bss_select_weighted(rows, b)

    def test_pipeline_certificate_small(self):
        # greedy path: guarantee-level stage-1 size, then two-sided certificate
        I, sel = stage1_selection(1, 1.0, 3.5, seed=11)  # |I| = 7
        b = 16.0
        out = bss_subsample(sel, I, b)
        assert out.stage == "bss_weighted"
        assert len(out) <= math.ceil(b * len(I))
        assert np.all(out.bss_weights >= 0)
        bounds = mz_constants(out.as_plan(), I)
        kap = kappa(1.0, 1.0)
        cap = 1.5 * (math.sqrt(b) + 1) ** 2 / (
            (math.sqrt(b) - 1) * (math.sqrt(b) - kap))
        assert bounds.A >= 0.5 * (1 - 1e-9)
        assert bounds.B <= cap * (1 + 1e-9)
        # reweights compose the stage-1 reweights with the scalars
        assert np.allclose(
            out.reweights, out.bss_weights * sel.reweights[
                np.searchsorted(np.arange(len(sel)), _positions(sel, out))])

    @pytest.mark.parametrize("spectrum, match", [
        ((0.0, 1.0), "lost full rank"),
        ((0.5, 1e6), "upper constant 1e\\+06 exceeds the certified cap"),
    ])
    def test_missed_certificate_raises(self, monkeypatch, spectrum, match):
        # the stage-1 window and the greedy see the real eigensolve; the
        # certificate's eigensolve, after the greedy, reports the extremes
        I, sel = stage1_selection(1, 1.0, 3.5, seed=11)
        eigvalsh, greedy = np.linalg.eigvalsh, bss_select_weighted
        selected = []

        def select(rows, b):
            selected.append(greedy(rows, b))
            return selected[-1]

        monkeypatch.setattr(latsub.subsampling, "bss_select_weighted", select)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: np.array(spectrum) if selected else eigvalsh(a))
        with pytest.raises(SpectralCertificateError, match=match):
            bss_subsample(sel, I, b=16.0)

    def test_oversized_selection_raises(self, monkeypatch):
        # no spectrum fails the lower bound once it is rescaled to A/2, so
        # the size bound is reached by a greedy that keeps all n > ceil(b |I|)
        # stage-1 rows with unit scalars, whose spectrum passes
        I, sel = stage1_selection(1, 1.0, 3.5, seed=11)
        assert len(sel) > math.ceil(16.0 * len(I))
        monkeypatch.setattr(latsub.subsampling, "bss_select_weighted",
                            lambda rows, b: (np.arange(len(rows)), np.ones(len(rows))))
        with pytest.raises(SpectralCertificateError, match="bound violated"):
            bss_subsample(sel, I, b=16.0)

    def test_infeasible_b_rejected(self):
        I, sel = stage1_selection(1, 1.0, 2.0, seed=12)
        kap = kappa(1.0, 1.0)
        with pytest.raises(ValueError, match="kappa"):
            bss_subsample(sel, I, b=kap * kap * 0.99)

    def test_violated_stage1_window_rejected(self):
        I, sel = stage1_selection(1, 1.0, 2.0, seed=13)
        bad = SubsampleSelection(
            parent=sel.parent, indices=sel.indices,
            reweights=sel.reweights * 10.0,  # breaks the [A/2, 3B/2] window
            stage="random", seed=sel.seed)
        with pytest.raises(ValueError, match="window"):
            bss_subsample(bad, I, b=16.0)

    def test_requires_stage1_selection(self):
        I, sel = stage1_selection(1, 1.0, 2.0, seed=14)
        out = plain_bss_subsample(sel, I, b=2.0)
        with pytest.raises(ValueError, match="stage-1"):
            bss_subsample(out, I, b=16.0)
        bare = SamplePlan(weights=sel.parent.weights, lattice=sel.parent.lattice)
        with pytest.raises(ValueError, match="no spectral bounds supplied"):
            bss_subsample(replace(sel, parent=bare), I, b=16.0)


def _positions(stage1, out):
    """Positions in the stage-1 draw that the output indices came from."""
    pos = []
    used = set()
    lookup = {}
    for p, idx in enumerate(stage1.indices):
        lookup.setdefault(int(idx), []).append(p)
    for idx in out.indices:
        for p in lookup[int(idx)]:
            if p not in used:
                pos.append(p)
                used.add(p)
                break
    return np.array(pos)


class TestPlainSparsification:
    def test_cardinality_and_certificate(self):
        I, sel = stage1_selection(2, 1.0, 2.0, seed=15, n_factor=4)
        for b in (2.0, 4.0):
            out = plain_bss_subsample(sel, I, b)
            assert out.stage == "plain_bss"
            assert out.bss_weights is None
            assert len(out) <= math.ceil(b * len(I))
            achieved = mz_constants(out.as_plan(), I).A
            certified = (b - 1) ** 3 / (178 * (b + 1) ** 2)
            assert achieved >= certified

    def test_reference_certified_value(self):
        # b = 2, A = 1: the certified lower constant is 1/1602
        assert (2 - 1) ** 3 / (178 * (2 + 1) ** 2) == pytest.approx(
            1 / 1602, rel=1e-15)

    def test_missed_certificate_raises(self, monkeypatch):
        # an eigensolve reporting half the certified lower constant
        I, sel = stage1_selection(2, 1.0, 2.0, seed=15, n_factor=4)
        b = 2.0
        certified = (b - 1) ** 3 / (178 * (b + 1) ** 2)
        monkeypatch.setattr(latsub.subsampling, "mz_constants",
                            lambda plan, index_set: SpectralBounds(certified / 2, 1.0))
        with pytest.raises(SpectralCertificateError, match="lower bound violated"):
            plain_bss_subsample(sel, I, b)

    def test_reweights_carry_draw_scaling(self):
        I, sel = stage1_selection(1, 1.0, 3.0, seed=16, n_factor=4)
        out = plain_bss_subsample(sel, I, b=2.0)
        n, m = len(sel), len(I)
        # each reweight is (w_i / rho_i) / |I| = stage-1 reweight * n / |I|;
        # on a uniform lattice that is exactly 1/|I|
        assert np.allclose(out.reweights, sel.reweights[0] * n / m)
        assert np.allclose(out.reweights, 1.0 / m)

    def test_single_frequency_feasible(self):
        I, sel = stage1_selection(1, 0.5, 1.5, seed=17, n_factor=8)
        assert len(I) == 1  # only the zero frequency survives
        out = plain_bss_subsample(sel, I, b=2.5)
        assert 1 <= len(out) <= 3
        assert mz_constants(out.as_plan(), I).A > 0

    def test_b_precondition(self):
        I, sel = stage1_selection(1, 1.0, 2.0, seed=18, n_factor=4)
        with pytest.raises(ValueError, match="1 \\+ 1/"):
            plain_bss_subsample(sel, I, b=1.0 + 0.5 / len(I))
        with pytest.raises(ValueError, match="1 \\+ 1/"):
            bss_select_plain(np.eye(4, dtype=complex), b=1.2)

    def test_all_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="input rows carry no mass"):
            bss_select_plain(np.zeros((30, 2), dtype=complex), b=2.0)
        with pytest.raises(ValueError, match="input rows span nothing"):
            bss_select_weighted(np.zeros((30, 2), dtype=complex), b=2.0)

    def test_requires_stage1_selection_and_bounds(self):
        I, sel = stage1_selection(1, 1.0, 2.0, seed=18, n_factor=4)
        with pytest.raises(ValueError, match="expects a stage-1 selection"):
            plain_bss_subsample(replace(sel, stage="plain_bss"), I, b=2.0)
        bare = SamplePlan(weights=sel.parent.weights, lattice=sel.parent.lattice)
        with pytest.raises(ValueError, match="no spectral bounds supplied"):
            plain_bss_subsample(replace(sel, parent=bare), I, b=2.0)

    def test_zero_rows_never_selected(self):
        rng = np.random.default_rng(19)
        m, n = 4, 30
        rows = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        rows[::3] = 0.0  # a third of the rows carry nothing
        chosen = bss_select_plain(rows, b=3.0)
        assert np.all(chosen % 3 != 0)

    def test_deterministic(self):
        I, sel = stage1_selection(2, 1.0, 2.0, seed=20, n_factor=4)
        a = plain_bss_subsample(sel, I, b=2.0)
        b = plain_bss_subsample(sel, I, b=2.0)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.reweights, b.reweights)

    def test_uniform_draw_first_pick_is_position_zero(self):
        # uniform reweights: every row ties exactly at step 0, on both scorers
        I, sel = stage1_selection(2, 1.0, 3.0, seed=21, n_factor=4)
        assert np.all(sel.reweights == sel.reweights[0])
        for s in (sel, stripped(sel)):
            out = plain_bss_subsample(s, I, b=2.0)
            assert out.indices[0] == sel.indices[0]


class TestLatticeDrawsReadNoPoints:
    """A lattice draw runs from its rows: no step computes lattice points."""

    def test_pipeline_on_a_lattice_draw_never_computes_points(self, monkeypatch):
        I, sel = stage1_selection(2, 1.0, 3.0, seed=21, n_factor=4)
        rows = sel.lattice_rows
        want = sel.parent.lattice.points(rows)

        def refuse(*args):
            raise AssertionError("lattice points computed")

        monkeypatch.setattr(Rank1Lattice, "points", refuse)
        lat = sel.parent.lattice
        assert (len(lattice_points(lat)), lattice_points(lat).dimension) == (lat.size, 2)
        plan = sel.as_plan()
        assert (len(plan), plan.dimension) == (len(sel), 2)
        assert np.array_equal(plan.lattice_rows, rows)
        assert mz_constants(plan, I).A > 0
        out = plain_bss_subsample(sel, I, b=2.0)
        assert len(out.as_plan()) == len(out)
        monkeypatch.undo()
        assert np.array_equal(plan.points, want)  # bitwise the rows' points


def gram_only_cap(index_set, selection):
    """A dense cap that admits the |I| x |I| Gram but not the N x |I| rows."""
    m = len(index_set)
    assert len(selection) > m
    return 16 * m * m


def stripped(selection):
    """The same stage-1 draw on a plan without its lattice link (dense path)."""
    parent = selection.parent
    plan = SamplePlan(points=parent.points, weights=parent.weights, bounds=parent.bounds)
    return replace(selection, parent=plan)


class TestLatticeScoredSparsification:
    @pytest.mark.parametrize("R", [4.0, 6.0, 8.0, 10.0, 12.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lattice_and_dense_scorers_select_alike(self, R, seed):
        I, lat, plan = tight_plan(5, 0.5, R, seed)
        m = len(I)
        sel = random_subsample(plan, density_weights(plan),
                               math.ceil(m * math.log(m)), seed)
        fast = plain_bss_subsample(sel, I, b=2.0)
        dense = plain_bss_subsample(stripped(sel), I, b=2.0)
        assert np.array_equal(fast.indices, dense.indices)
        assert np.array_equal(fast.reweights, dense.reweights)

    def test_scorers_select_alike_on_the_criterion_6_draws(self):
        # every stage-1 draw that experiment 2's bss_sub strategy makes at
        # d = 5, gamma = 1/2, seed 0, five repetitions, radii 4 and 8 (R = 16,
        # the config's third radius, costs ~20 s per dense replay)
        for r_index, R in enumerate((4.0, 8.0)):
            I, lat, plan = tight_plan(5, 0.5, R, 0)
            m = len(I)
            n = math.ceil(m * math.log(m))
            for rep in range(5):
                sel = random_subsample(plan, density_weights(plan), n,
                                       _derived_seed(0, r_index, "bss_sub", rep))
                assert mz_constants(sel.as_plan(), I).A > 1e-8  # the first draw is used
                norms = sel.reweights * m
                fast = _barrier_greedy(norms, m, 2.0, *lattice_scorer(sel, I))
                dense = _barrier_greedy(norms, m, 2.0, *_dense_scorer(_stage1_rows(sel, I)))
                assert np.array_equal(fast, dense), (R, rep)

    def test_entry_cap_binds_only_the_dense_paths(self, monkeypatch):
        I, sel = stage1_selection(2, 1.0, 3.0, seed=22, n_factor=4)
        before = plain_bss_subsample(sel, I, b=2.0)
        monkeypatch.setattr(latsub.mz, "DENSE_CAP_BYTES", gram_only_cap(I, sel))
        after = plain_bss_subsample(sel, I, b=2.0)
        assert np.array_equal(after.indices, before.indices)
        assert np.array_equal(after.reweights, before.reweights)
        with pytest.raises(ValueError, match="dense cap"):
            plain_bss_subsample(stripped(sel), I, b=2.0)
        with pytest.raises(ValueError, match="dense cap"):
            bss_subsample(sel, I, b=16.0)

    def test_asymmetric_set_takes_the_dense_path(self, monkeypatch):
        # a lattice parent alone does not pick the real scorer: I must be -I
        def draw(index_set):
            lat = search_generator(index_set, rng_seed=23)
            plan = SamplePlan(weights=np.full(lat.size, 1 / lat.size),
                              bounds=SpectralBounds(1.0, 1.0), lattice=lat)
            m = len(index_set)
            return random_subsample(plan, density_weights(plan),
                                    math.ceil(4 * m * (math.log(m) + 1)), seed=23)

        I_sym = hyperbolic_cross(2, 1.0, 8.0)
        I = select_largest_eigenvalues(I_sym, 8, 1.5)
        assert not np.array_equal(I.frequencies[::-1], -I.frequencies)
        sel = draw(I)
        monkeypatch.setattr(latsub.mz, "DENSE_CAP_BYTES", gram_only_cap(I, sel))
        with pytest.raises(ValueError, match="dense cap"):
            plain_bss_subsample(sel, I, b=2.0)
        sel = draw(I_sym)
        monkeypatch.setattr(latsub.mz, "DENSE_CAP_BYTES", gram_only_cap(I_sym, sel))
        assert len(plain_bss_subsample(sel, I_sym, b=2.0)) <= 2 * len(I_sym)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 3),
        M=st.integers(1, 97),
        with_zero=st.booleans(),
        data=st.data(),
    )
    def test_lattice_cross_matches_dense_product(self, d, M, with_zero, data):
        # arbitrary lattices need not be reconstructing: residues may collide
        z = data.draw(st.lists(st.integers(0, M - 1), min_size=d, max_size=d))
        lat = Rank1Lattice(d, np.array(z), M)
        # a symmetric set: a drawn half, its mirror, and possibly 0
        half = data.draw(st.lists(
            st.tuples(*[st.integers(-6, 6)] * d).filter(any), max_size=6, unique=True))
        freqs = set(half) | {tuple(-c for c in k) for k in half}
        if with_zero or not freqs:
            freqs.add((0,) * d)
        I = IndexSet(d, np.array(sorted(freqs)).reshape(-1, d))
        # a parent that is itself a lattice subset, drawn from with duplicates
        sub = np.array(data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=20)))
        parent = SamplePlan(weights=np.full(len(sub), 1.0), lattice=lat, lattice_rows=sub)
        idx = data.draw(st.lists(st.integers(0, len(sub) - 1), min_size=1, max_size=30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sel = SubsampleSelection(parent=parent, indices=np.array(idx),
                                 reweights=rng.random(len(idx)) + 0.1,
                                 stage="random")
        w, g = rng.standard_normal((2, len(I)))
        rows = realified(_stage1_rows(sel, I))
        row, cross = lattice_scorer(sel, I)
        a1, a2 = cross(w, g)
        np.testing.assert_allclose(a1, rows @ w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a2, rows @ g, rtol=0, atol=1e-12)
        for i in range(len(idx)):
            assert row(i).dtype == np.float64
            np.testing.assert_allclose(row(i), rows[i], rtol=0, atol=1e-12)


def fft_cross(sel, I, w, g):
    """The scorer's products by one ``np.fft.fft`` at the lattice size M."""
    m, h = len(I), len(I) // 2
    res = residues(sel.parent.lattice, I.frequencies)
    x = np.asarray(w + 1j * g)
    y = x.copy()  # T^T x, written out apart from fourier._from_real
    y[:h] = (x[:h] + 1j * x[m - h:]) / math.sqrt(2)
    y[m - h:] = ((x[:h] - 1j * x[m - h:]) / math.sqrt(2))[::-1]
    spread = np.zeros(sel.parent.lattice.size, dtype=np.complex128)
    np.add.at(spread, res, y)
    f = np.fft.fft(spread)[sel.parent.lattice_rows[sel.indices]] * np.sqrt(sel.reweights)
    return f.real, f.imag


class TestScorerAtEveryLatticeSize:
    """``LatticeOperator.real_rows`` runs its FFTs at length M at every lattice
    size M: prime, 5-smooth or neither."""

    @staticmethod
    def draw(M, colliding, z=None):
        # colliding: z = (1, 1) maps (1, 0) and (0, 1) to one residue
        d = 2
        if z is None:
            z = [1, 1] if colliding else [1, 7 % M]
        lat = Rank1Lattice(d, np.array(z), M)
        I = hyperbolic_cross(d, 1.0, 3.0)
        rng = np.random.default_rng(M)
        sub = rng.integers(0, M, 40)
        sub[1] = sub[0]  # the parent repeats a lattice row
        parent = SamplePlan(weights=np.full(len(sub), 1.0), lattice=lat, lattice_rows=sub)
        idx = rng.integers(0, len(sub), 60)
        idx[3] = idx[2]  # the draw repeats a parent row
        sel = SubsampleSelection(parent=parent, indices=idx,
                                 reweights=rng.random(len(idx)) + 0.1,
                                 stage="random")
        return I, sel, rng

    @pytest.mark.parametrize("colliding", [False, True], ids=["generic", "colliding"])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 7, 31, 61, 1009, 1367, 6449,
                                   1024, 1440, 12800, 32400])
    def test_cross_matches_dense_and_fft(self, M, colliding):
        I, sel, rng = self.draw(M, colliding)
        res = residues(sel.parent.lattice, I.frequencies)
        if colliding:
            assert len(np.unique(res)) < len(I)
        self.assert_matches(I, sel, rng)

    @pytest.mark.parametrize("M", [1440, 1442])
    def test_residue_at_half_m(self, M):
        # z_2 = M/2 puts (0, +-1) at residue M/2; 1442 is not 5-smooth
        I, sel, rng = self.draw(M, False, z=[1, M // 2])
        res = residues(sel.parent.lattice, I.frequencies)
        assert np.any(2 * res == M)
        self.assert_matches(I, sel, rng)

    @staticmethod
    def assert_matches(I, sel, rng):
        w, g = rng.standard_normal((2, len(I)))
        rows = realified(_stage1_rows(sel, I))
        row, cross = lattice_scorer(sel, I)
        got = cross(w, g)
        for want in ((rows @ w, rows @ g), fft_cross(sel, I, w, g)):
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        for i in range(len(sel)):
            np.testing.assert_allclose(row(i), rows[i], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [1009, 1367, 1024, 1440])  # two primes, two 5-smooth
    def test_selection_runs_only_length_M_ffts(self, M, monkeypatch):
        assert self.fft_lengths(M, monkeypatch) == {M}

    def fft_lengths(self, M, monkeypatch):
        """The lengths of every FFT one greedy selection runs: n, where given."""
        I, sel, _ = self.draw(M, colliding=False)
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def spy(a, n=None, *args, _fft=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[-1] if n is None else n)
                return _fft(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        m = len(I)
        chosen = _barrier_greedy(sel.reweights * m, m, 2.0, *lattice_scorer(sel, I))
        assert len(chosen) == min(2 * m, len(sel))
        assert lengths
        return set(lengths)


def realified(rows):
    """Conjugate-symmetric rows in the basis ``[sqrt2 Re v_p, v_0, sqrt2 Im v_p]``.

    Position p < h = m // 2 pairs with m-1-p; the middle entry (k = 0, odd
    m only) is real.  The map is unitary on conjugate-symmetric vectors, so
    the realified rows keep their norms.
    """
    m = rows.shape[1]
    h = m // 2
    np.testing.assert_allclose(rows[:, ::-1], rows.conj(), rtol=0, atol=1e-12)
    out = np.hstack((math.sqrt(2) * rows[:, :h].real, rows[:, h:m - h].real,
                     math.sqrt(2) * rows[:, :h].imag))
    np.testing.assert_allclose(np.sum(out**2, axis=1), np.sum(np.abs(rows)**2, axis=1),
                               rtol=1e-12)
    return out


def blas_barrier_greedy(norms, m, b, row, cross):
    """The plain greedy with an in-place BLAS resolvent, one rank-1 update per
    step and every position scored: the differential oracle of ``_barrier_greedy``.

    The resolvent is kept in its upper triangle and updated by scipy's BLAS
    ``dsymv``/``dsyr``, or ``zhemv``/``zher`` for complex rows.
    """
    from scipy.linalg.blas import dsymv, dsyr, zhemv, zher

    if b <= 1.0 + 1.0 / m:
        raise ValueError(f"b must exceed 1 + 1/|I| = {1 + 1 / m}, got {b}")
    active = norms > 0
    n_active = int(active.sum())
    q = min(int(math.ceil(b * m)), n_active)
    tr_total = norms[active].sum()
    # barrier depth: a quarter of the selection's fair-share eigenvalue
    level = 0.25 * tr_total * q / (max(n_active, 1) * m)
    if level <= 0:
        raise ValueError("input rows carry no mass")

    dtype = row(0).dtype
    hemv, her = (dsymv, dsyr) if dtype == np.float64 else (zhemv, zher)
    # (S - l I)^{-1} at S = 0; Fortran order so BLAS updates it in place
    resolvent = np.asfortranarray(np.eye(m, dtype=dtype) / level)
    q1 = norms / level  # row scores  v^H (S - l I)^{-1} v
    q2 = norms / level**2  # and  v^H (S - l I)^{-2} v
    blocked = ~active
    selected = []
    for _ in range(q):
        gain = q2 / (1.0 + q1)  # potential decrease when adding the row
        gain[blocked] = -np.inf
        top = gain.max()
        i = int(np.argmax(gain >= top - latsub.subsampling._NEAR_TIE * abs(top)))
        blocked[i] = True
        selected.append(i)
        w = hemv(1.0, resolvent, row(i))
        g = hemv(1.0, resolvent, w)
        beta = 1.0 / (1.0 + q1[i])
        a1, a2 = cross(w, g)
        abs1 = np.abs(a1) ** 2
        q1 = q1 - beta * abs1
        q2 = (
            q2
            - 2.0 * beta * np.real(a2 * a1.conj())
            + beta**2 * float(np.real(np.vdot(w, w))) * abs1
        )
        her(-beta, w, a=resolvent, overwrite_a=True)
    return np.array(selected, dtype=np.int64)


class TestGreedyAgainstTheBlasLoop:
    """``_barrier_greedy``, with queued rank-``_FLUSH`` resolvent updates and
    each group of equal rows scored once, returns the positions of the
    in-place BLAS loop scoring every position."""

    @staticmethod
    def plain_positions(monkeypatch, sel, I, b=2.0):
        """The positions ``plain_bss_subsample`` gets from the greedy on ``sel``."""
        got = []

        def spy(*args, **kwargs):
            got.append(_barrier_greedy(*args, **kwargs))
            return got[-1]

        monkeypatch.setattr(latsub.subsampling, "_barrier_greedy", spy)
        out = plain_bss_subsample(sel, I, b)
        assert np.array_equal(out.indices, sel.indices[got[0]])
        return got[0]

    @staticmethod
    def oracle_positions(sel, I, b=2.0):
        m = len(I)
        scorer = (lattice_scorer(sel, I) if sel.parent.lattice is not None
                  else _dense_scorer(_stage1_rows(sel, I)))
        return blas_barrier_greedy(sel.reweights * m, m, b, *scorer)

    @staticmethod
    def draws():
        """Lattice draws with many duplicates, none, and one repeated row."""
        I, lat, plan = tight_plan(2, 0.5, 8.0, 3)
        many = random_subsample(plan, density_weights(plan), 6 * lat.size, 5)
        assert len(np.unique(many.indices)) < len(many) / 4
        keep = np.sort(np.unique(many.indices, return_index=True)[1])
        none = replace(many, indices=many.indices[keep], reweights=many.reweights[keep])
        one = replace(none, indices=np.insert(none.indices, 17, none.indices[3]),
                      reweights=np.insert(none.reweights, 17, none.reweights[3]))
        return I, {"many": many, "none": none, "one": one}

    @pytest.mark.parametrize("kind", ["many", "none", "one"])
    @pytest.mark.parametrize("path", ["lattice", "dense"])
    def test_lattice_draws(self, monkeypatch, kind, path):
        I, draws = self.draws()
        sel = draws[kind] if path == "lattice" else stripped(draws[kind])
        got = self.plain_positions(monkeypatch, sel, I)
        assert np.array_equal(got, self.oracle_positions(sel, I))

    @pytest.mark.parametrize("path", ["lattice", "dense"])
    def test_uniform_draw_takes_position_zero_first(self, monkeypatch, path):
        # every row ties at step 0, and position 0's row recurs later in the draw
        I, sel = stage1_selection(2, 1.0, 3.0, seed=21, n_factor=4)
        assert np.all(sel.reweights == sel.reweights[0])
        assert np.count_nonzero(sel.indices == sel.indices[0]) > 1
        if path == "dense":
            sel = stripped(sel)
        got = self.plain_positions(monkeypatch, sel, I)
        assert got[0] == 0
        assert np.array_equal(got, self.oracle_positions(sel, I))

    @pytest.mark.parametrize("q", [_FLUSH - 1, _FLUSH, _FLUSH + 1, 2 * _FLUSH + 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_selection_lengths_around_the_flush(self, q, dtype):
        # q = ceil(b m) steps on m = 8 random rows, each of them drawn one or more times
        m, groups = 8, 2 * q
        rng = np.random.default_rng(q)
        base = rng.standard_normal((groups, m))
        if dtype == np.complex128:
            base = base + 1j * rng.standard_normal((groups, m))
        draw = rng.permutation(np.concatenate((np.arange(groups),
                                               rng.integers(0, groups, groups))))
        rows = base[draw]
        norms = np.sum(np.abs(rows) ** 2, axis=1)
        b = q / m
        want = blas_barrier_greedy(norms, m, b, *_dense_scorer(rows))
        assert len(want) == q
        assert np.array_equal(_barrier_greedy(norms, m, b, *_dense_scorer(rows)), want)
        assert np.array_equal(
            _barrier_greedy(norms, m, b, *_dense_scorer(base), groups=draw), want)

    def test_complex_dense_path_on_an_asymmetric_set(self, monkeypatch):
        I = select_largest_eigenvalues(hyperbolic_cross(2, 1.0, 8.0), 8, 1.5)
        assert not np.array_equal(I.frequencies[::-1], -I.frequencies)
        lat = search_generator(I, rng_seed=23)
        plan = SamplePlan(weights=np.full(lat.size, 1 / lat.size),
                          bounds=SpectralBounds(1.0, 1.0), lattice=lat)
        m = len(I)
        sel = random_subsample(plan, density_weights(plan),
                               math.ceil(4 * m * (math.log(m) + 1)), seed=23)
        assert len(np.unique(sel.indices)) < len(sel)
        got = self.plain_positions(monkeypatch, sel, I)
        want = blas_barrier_greedy(sel.reweights * m, m, 2.0,
                                   *_dense_scorer(_stage1_rows(sel, I)))
        assert np.array_equal(got, want)
