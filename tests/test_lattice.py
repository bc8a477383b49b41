"""Lattice point sets, reconstructing property, and generator search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latsub.lattice
from latsub.index_sets import IndexSet, hyperbolic_cross
from latsub.lattice import (
    _INT64_SAFE_M,
    GeneratorSearchError,
    Rank1Lattice,
    SamplePlan,
    _default_schedule,
    _distinct,
    _fast_length,
    _next_prime,
    _prefix_structure,
    is_reconstructing,
    lattice_points,
    residues,
    search_generator,
)


def character_sum_reconstructing(lat, index_set):
    """Oracle: evaluate (1/M) sum_i exp(2 pi i <k - l, x^i>) for all pairs."""
    pts = lat.points()
    K = index_set.frequencies
    for a in range(len(K)):
        for b in range(len(K)):
            phases = np.exp(2j * np.pi * (pts @ (K[a] - K[b])))
            val = phases.mean()
            want = 1.0 if a == b else 0.0
            if abs(val - want) > 1e-9:
                return False
    return True


def interval_set(lo, hi):
    return IndexSet(dimension=1, frequencies=[[k] for k in range(lo, hi + 1)])


class TestLatticePoints:
    def test_equispaced_special_case(self):
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=4)
        plan = lattice_points(lat)
        assert np.array_equal(plan.points.ravel(), [0, 0.25, 0.5, 0.75])
        assert np.allclose(plan.weights, 0.25)
        assert plan.weights.sum() == pytest.approx(1.0)

    def test_modular_point(self):
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 3]), size=5)
        plan = lattice_points(lat)
        assert plan.points[2] == pytest.approx([0.4, 0.2])

    def test_generator_reduced_mod_m(self):
        lat = Rank1Lattice(dimension=2, generator=np.array([7, -1]), size=5)
        assert np.array_equal(lat.generator, [2, 4])

    @pytest.mark.parametrize("d, M, seed", [
        (1, 7, 0), (2, 163, 1), (3, 1024, 2), (5, 127, 3), (5, 6480, 4), (10, 12659, 5),
    ])
    def test_points_match_the_broadcast_expression_bitwise(self, d, M, seed):
        # the column-by-column fill against the (n, d) broadcast it replaced
        rng = np.random.default_rng(seed)
        lat = Rank1Lattice(dimension=d, generator=rng.integers(0, M, size=d), size=M)
        for rows in (None, rng.integers(0, M, size=3 * M), np.array([], dtype=np.int64)):
            i = np.arange(M, dtype=np.int64) if rows is None else rows
            want = (i[:, None] * lat.generator[None, :] % M) / M
            got = lat.points(rows)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_points_are_exact_rationals(self):
        lat = Rank1Lattice(dimension=2, generator=np.array([3, 7]), size=11)
        pts = lat.points()
        i = np.arange(11)
        assert np.array_equal(pts[:, 0] * 11, (i * 3) % 11)
        assert np.array_equal(pts[:, 1] * 11, (i * 7) % 11)


class TestIsReconstructing:
    def test_interval_mod3(self):
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=3)
        I = interval_set(-1, 1)
        assert is_reconstructing(lat, I)
        assert character_sum_reconstructing(lat, I)

    def test_interval_mod2_collides(self):
        lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=2)
        I = interval_set(-1, 1)
        assert not is_reconstructing(lat, I)
        assert not character_sum_reconstructing(lat, I)

    def test_singleton_always_reconstructs(self):
        I = IndexSet(dimension=3, frequencies=[[0, 0, 0]])
        lat = Rank1Lattice(dimension=3, generator=np.array([0, 0, 0]), size=1)
        assert is_reconstructing(lat, I)

    def test_pigeonhole(self):
        I = interval_set(-2, 2)
        for M in (1, 2, 3, 4):
            lat = Rank1Lattice(dimension=1, generator=np.array([1]), size=M)
            assert not is_reconstructing(lat, I)

    def test_agrees_with_character_sum_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            M = int(rng.integers(2, 64))
            z = rng.integers(0, M, size=d)
            kmax = int(rng.integers(1, 4))
            freqs = np.unique(
                rng.integers(-kmax, kmax + 1, size=(6, d)), axis=0)
            I = IndexSet(dimension=d, frequencies=freqs)
            lat = Rank1Lattice(dimension=d, generator=z, size=M)
            assert is_reconstructing(lat, I) == character_sum_reconstructing(lat, I)

    @pytest.mark.slow
    def test_agrees_with_character_sum_oracle_large(self):
        # vectorized form of the quadrature oracle at the size ceiling:
        # the full Gram (1/M) L^H L must be the identity iff reconstructing
        rng = np.random.default_rng(8)
        I = hyperbolic_cross(2, 1.0, 11.0)  # just under 200 frequencies
        assert len(I) <= 200
        for trial in range(6):
            M = int(rng.integers(len(I), 10_000))
            z = rng.integers(0, M, size=2)
            lat = Rank1Lattice(dimension=2, generator=z, size=M)
            V = np.exp(2j * np.pi * (lat.points() @ I.frequencies.T))
            gram = V.conj().T @ V / M
            oracle = np.max(np.abs(gram - np.eye(len(I)))) < 1e-9
            assert is_reconstructing(lat, I) == oracle

    def test_residues_exact_at_the_largest_size(self):
        # the int64 path at M = _INT64_SAFE_M, checked against Python ints
        M = _INT64_SAFE_M
        z = [M - 1, M // 2 + 12345]
        lat = Rank1Lattice(dimension=2, generator=np.array(z), size=M)
        K = np.array([[0, 0], [1, 0], [0, 1], [-3, 7], [M - 1, -(M - 1)]])
        want = [(int(k0) * z[0] + int(k1) * z[1]) % M for k0, k1 in K]
        assert [int(v) for v in residues(lat, K)] == want

    def test_validation(self):
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 3]), size=7)
        with pytest.raises(ValueError, match=r"frequencies must have shape \(n, 2\)"):
            residues(lat, np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="index set must be nonempty"):
            is_reconstructing(lat, IndexSet(dimension=2, frequencies=np.zeros((0, 2))))
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_reconstructing(lat, interval_set(-1, 1))

    def test_size_beyond_int64_range_refused(self):
        Rank1Lattice(dimension=1, generator=[1], size=_INT64_SAFE_M)
        with pytest.raises(ValueError, match="exceeds the exact int64 range"):
            Rank1Lattice(dimension=2, generator=[2**39, 12345], size=2**40 + 39)


class TestSearchGenerator:
    def test_zero_set_gives_trivial_lattice(self):
        I = IndexSet(dimension=3, frequencies=[[0, 0, 0]])
        lat = search_generator(I, rng_seed=0)
        assert lat.size == 1
        assert np.array_equal(lat.generator, [0, 0, 0])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="index set must be nonempty"):
            search_generator(IndexSet(dimension=2, frequencies=np.zeros((0, 2))), rng_seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            search_generator(interval_set(-2, 2), rng_seed=-1)

    def test_interval_needs_at_least_card_points(self):
        I = interval_set(-2, 2)
        lat = search_generator(I, rng_seed=0)
        assert lat.size >= len(I)
        assert is_reconstructing(lat, I)

    def test_cross_d2_verified_by_dense_oracle(self):
        I = hyperbolic_cross(2, 1.0, 4.0)
        lat = search_generator(I, rng_seed=1)
        assert is_reconstructing(lat, I)
        assert character_sum_reconstructing(lat, I)

    def test_deterministic_given_seed(self):
        I = hyperbolic_cross(3, 1.0, 6.0)
        a = search_generator(I, rng_seed=11)
        b = search_generator(I, rng_seed=11)
        c = search_generator(I, rng_seed=12)
        assert a.to_line() == b.to_line()
        assert is_reconstructing(c, I)

    def test_gram_identity_on_accepted_lattices(self):
        # L* W L = Identity to 1e-10 for reconstructing lattices (dense check)
        from latsub.mz import gram_matrix

        for d, gamma, R, seed in [(1, 1.0, 8.0, 0), (2, 1.0, 6.0, 1),
                                  (3, 1.0, 4.0, 2), (5, 0.5, 4.0, 3)]:
            I = hyperbolic_cross(d, gamma, R)
            lat = search_generator(I, rng_seed=seed)
            plan = lattice_points(lat)
            G = gram_matrix(plan, I)
            assert np.max(np.abs(G - np.eye(len(I)))) < 1e-10

    @pytest.mark.parametrize("d, R, seed, line", [
        # found at the first size, a prime
        (2, 20.0, 5, "2 163 18 130"),
        # found at a later size, 5-smooth
        (5, 16.0, 1, "5 6480 3147 4806 3119 6417 820"),
        (10, 8.0, 3, "10 12800 2798 11556 2268 12031 9882 10773 10830 11115 766 11691"),
        (10, 14.0, 7, "10 32400 3391 8122 19156 26286 14953 28951 22018 16815 2204 2177"),
        (10, 14.0, 41, "10 32400 23937 3399 15733 14353 9876 10066 8147 23716 10773 9432"),
    ])
    def test_pinned_generators(self, d, R, seed, line):
        assert search_generator(hyperbolic_cross(d, 0.5, R), rng_seed=seed).to_line() == line

    @pytest.mark.parametrize("R, M", [(4.0, 127), (6.0, 149)])
    def test_small_crosses_reconstruct_at_the_first_prime(self, R, M):
        # d = 5, |I| = 61 and 71: the sizes behind the known aliasing rates
        I = hyperbolic_cross(5, 0.5, R)
        assert M == _next_prime(2 * len(I) - 1)
        assert [search_generator(I, rng_seed=s).size for s in range(10)] == [M] * 10

    def test_exhausted_schedule_raises(self):
        I = hyperbolic_cross(2, 1.0, 4.0)
        with pytest.raises(GeneratorSearchError, match="budget"):
            search_generator(I, rng_seed=0, m_schedule=[2, 3, 5])

    def test_explicit_schedule_honored(self):
        I = interval_set(-3, 3)
        lat = search_generator(I, rng_seed=0, m_schedule=[7, 11, 13])
        assert lat.size in (7, 11, 13)

    @pytest.fixture
    def no_candidate_tested(self, monkeypatch):
        def fail(r):
            raise AssertionError("a candidate was tested")

        monkeypatch.setattr(latsub.lattice, "_distinct", fail)

    def test_sizes_below_card_skipped(self, no_candidate_tested):
        with pytest.raises(GeneratorSearchError, match=r"\(0 sizes"):
            search_generator(interval_set(-3, 3), rng_seed=0, m_schedule=[1, 2, 6])

    def test_schedule_beyond_int64_range_refused(self, no_candidate_tested):
        I = hyperbolic_cross(2, 1.0, 4.0)
        with pytest.raises(GeneratorSearchError,
                           match="beyond the vectorized search range"):
            search_generator(I, rng_seed=0, m_schedule=[2**31 + 11])

    def test_default_schedule_ends_at_int64_safe_range(self):
        sizes = list(_default_schedule(2**30))
        assert sizes and max(sizes) <= _INT64_SAFE_M

    @pytest.mark.parametrize("m", [2, 5, 61, 71, 341, 2001, 8801, 2**29 - 1, 2**29])
    def test_default_schedule_is_a_prime_then_5_smooth_sizes(self, m):
        sizes = list(_default_schedule(2 * m))
        assert sizes[0] == _next_prime(2 * m - 1)
        for prev, M in zip(sizes, sizes[1:]):
            assert M >= 2 * prev and M == _fast_length(2 * prev)
            assert _fast_length(M) == M  # 5-smooth
        assert sizes[-1] <= _INT64_SAFE_M < _fast_length(2 * sizes[-1])

    def test_fast_length_is_the_next_5_smooth_integer(self):
        smooth = [n for n in range(1, 5000) if _strip(_strip(_strip(n, 2), 3), 5) == 1]
        for n in range(1, 4000):
            assert _fast_length(n) == min(m for m in smooth if m >= n)
        assert _fast_length(32069) == 32400  # a prime; the d=10, R=14 lattice size


def _strip(n, p):
    while n % p == 0:
        n //= p
    return n


def prefix_oracle(index_set):
    """Per stage j: the sorted j-prefix tuples and each one's parent position."""
    rows = [tuple(int(c) for c in k) for k in index_set.frequencies]
    stages = []
    previous = {(): 0}
    for j in range(1, index_set.dimension + 1):
        prefixes = sorted({k[:j] for k in rows})
        stages.append((prefixes, [previous[p[:-1]] for p in prefixes]))
        previous = {p: i for i, p in enumerate(prefixes)}
    return stages


class TestPrefixStructure:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=40, unique=True)))
    @example([(0,)])
    @example([(1, 2, 3)])
    @example([(0, 0), (0, 1), (0, -1), (1, 1), (1, -2)])
    @example([(0, 0, 1), (0, 0, 2), (0, 1, 1), (2, 0, 1), (2, 0, -3)])
    def test_matches_dict_oracle(self, rows):
        I = IndexSet(dimension=len(rows[0]), frequencies=rows)
        structure = _prefix_structure(I.frequencies)
        assert len(structure) == I.dimension
        got = [()]
        for (parents, lastcol), (prefixes, want_parents) in zip(
            structure, prefix_oracle(I)
        ):
            assert parents.dtype == np.int64 and lastcol.dtype == np.int64
            assert parents.tolist() == want_parents
            got = [got[p] + (int(c),) for p, c in zip(parents, lastcol)]
            assert got == prefixes


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=12))
    @example([])
    @example([3])
    @example([1, 1, 2, 4])
    @example([2, 4, 7, 7])
    def test_matches_unique(self, values):
        r = np.array(values, dtype=np.int64)
        assert _distinct(r) == (len(np.unique(r)) == len(r))


class TestNextPrime:
    def test_matches_sieve_below_1e5(self):
        N = 10**5
        sieve = np.ones(N + 100, dtype=bool)  # the next prime after 99999 is 100003
        sieve[:2] = False
        for p in range(2, int((N + 100) ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        n = np.arange(-2, N)
        expected = primes[np.searchsorted(primes, n, side="right")]
        assert [_next_prime(int(k)) for k in n] == expected.tolist()

    def test_first_prime_beyond_int64_safe_range(self):
        assert _next_prime(2**31) == 2147483659


class TestSamplePlanSerialization:
    def test_lattice_line_round_trip(self, tmp_path):
        lat = Rank1Lattice(dimension=3, generator=np.array([5, 9, 2]), size=17)
        assert lat.to_line() == "3 17 5 9 2"
        path = tmp_path / "lat.txt"
        lat.save(path)
        again = Rank1Lattice.load(path)
        assert again == lat

    @pytest.mark.parametrize("line", ["", "   \n", "3", "3 17 5 9"])
    def test_short_lattice_line_rejected(self, line):
        with pytest.raises(ValueError):
            Rank1Lattice.from_line(line)

    @pytest.mark.parametrize("line, match", [
        ("2 101 1 5 7", "must hold d = 2 generator entries, got 3"),
        ("0 5", "lattice dimension must be >= 1, got 0"),
        ("-1 5", "must hold d = -1 generator entries, got 0"),
    ], ids=["over-long", "zero-dimension", "negative-dimension"])
    def test_malformed_lattice_line_rejected(self, line, match):
        with pytest.raises(ValueError, match=match):
            Rank1Lattice.from_line(line)

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="lattice size must be >= 1, got 0"):
            Rank1Lattice(dimension=1, generator=[1], size=0)
        with pytest.raises(ValueError, match=r"generator must have shape \(3,\), got \(2,\)"):
            Rank1Lattice(dimension=3, generator=[1, 2], size=5)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SamplePlan(points=[[0.0]], weights=[-1.0])
        with pytest.raises(ValueError, match="finite"):
            SamplePlan(points=[[np.nan]], weights=[1.0])
        with pytest.raises(ValueError, match="finite"):
            SamplePlan(points=[[0.0]], weights=[np.inf])
        with pytest.raises(ValueError):
            SamplePlan(points=[[0.0], [0.5]], weights=[1.0])

    @pytest.mark.parametrize("change, match", [
        (lambda rows: rows - 5, r"lattice_rows must lie in \[0, M = 31\)"),
        (lambda rows: rows + 31, r"lattice_rows must lie in \[0, M = 31\)"),
        (lambda rows: rows[:-1], r"got \(40,\) weights for lattice_rows of shape \(39,\)"),
        (lambda rows: rows.reshape(2, 20), r"lattice_rows of shape \(2, 20\)"),
        (lambda rows: None, r"got \(40,\) weights for all M = 31 lattice points"),
    ], ids=["negative", "beyond_M", "short", "2d", "absent"])
    def test_lattice_rows_must_fit_the_weights(self, change, match):
        lat = Rank1Lattice(dimension=2, generator=np.array([1, 5]), size=31)
        rows = np.random.default_rng(0).integers(0, 5, 40)  # some rows below 5
        w = np.full(40, 1 / 40)
        SamplePlan(weights=w, lattice=lat, lattice_rows=rows)
        with pytest.raises(ValueError, match=match):
            SamplePlan(weights=w, lattice=lat, lattice_rows=change(rows))

    def test_lattice_rows_need_a_lattice(self):
        with pytest.raises(ValueError, match="lattice_rows need a lattice"):
            SamplePlan(points=[[0.0]], weights=[1.0], lattice_rows=[0])


class TestLatticePlanHoldsRows:
    """A lattice plan stores its rows and weights; its points are computed."""

    LAT = Rank1Lattice(dimension=3, generator=np.array([1, 7, 12]), size=31)

    def test_points_are_the_rows_points_bitwise(self):
        rows = np.random.default_rng(1).integers(0, 31, 50)
        plan = SamplePlan(weights=np.ones(50), lattice=self.LAT, lattice_rows=rows)
        assert np.array_equal(plan.points, self.LAT.points(rows))
        full = lattice_points(self.LAT)
        assert np.array_equal(full.points, self.LAT.points())
        assert (len(plan), plan.dimension, len(full), full.dimension) == (50, 3, 31, 3)

    @pytest.mark.parametrize("rows", [None, [0, 3, 3]], ids=["all", "some"])
    def test_lattice_plan_refuses_points(self, rows):
        n = 31 if rows is None else len(rows)
        with pytest.raises(ValueError, match="a lattice plan takes no points"):
            SamplePlan(points=self.LAT.points(rows), weights=np.ones(n),
                       lattice=self.LAT, lattice_rows=rows)

    def test_rows_cannot_disagree_with_the_points(self):
        # a plan once accepted the rows of other points, and its operators
        # then described those; the points now follow from the rows
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 31, 20)
        moved = rng.permutation(rows)
        assert not np.array_equal(rows, moved)
        with pytest.raises(ValueError):
            SamplePlan(points=self.LAT.points(rows), weights=np.ones(20),
                       lattice=self.LAT, lattice_rows=moved)
        plan = SamplePlan(weights=np.ones(20), lattice=self.LAT, lattice_rows=moved)
        assert np.array_equal(plan.points, self.LAT.points(moved))

    def test_plans_are_immutable(self):
        plan = lattice_points(self.LAT)
        with pytest.raises(AttributeError, match="immutable"):
            plan.lattice_rows = np.arange(31)
        assert not plan.weights.flags.writeable
