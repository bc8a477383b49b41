"""Experiment harness: contracts, determinism, reports."""

import json
import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import latsub.experiments
import latsub.fourier
import latsub.mz
import latsub.subsampling
from latsub.experiments import (
    KNOWN_STRATEGIES,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    _derived_seed,
    check_report,
    emit_report,
    error_at_matched_points,
    run_experiment_1,
    run_experiment_2,
)
from latsub.fourier import DenseOperator, LatticeOperator, SystemOperator
from latsub.index_sets import hyperbolic_cross
from latsub.lattice import _DEFAULT_SCHEDULE_NAME, search_generator
from latsub.mz import SpectralBounds
from latsub.subsampling import SpectralCertificateError

DESK = dict(dimension=2, gamma=0.5, radii=(4.0, 8.0, 16.0), repetitions=2, seed=3)


def fake_clock(monkeypatch):
    """Replace the experiments clock; ``ticking(fn, cost)`` wraps ``fn`` so
    each call advances it by ``cost`` (a number, or a function giving one)."""
    now = [0.0]
    monkeypatch.setattr(latsub.experiments, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))

    def ticking(fn, cost):
        def timed(*args, **kwargs):
            now[0] += cost() if callable(cost) else cost
            return fn(*args, **kwargs)
        return timed

    return ticking


def desk_config(tmp_path, **over):
    fields = dict(DESK)
    fields["output_dir"] = str(tmp_path / over.pop("subdir", "out"))
    fields.update(over)
    return ExperimentConfig(**fields)


def assert_budget_bounds_run(run, cfg, row_bytes):
    """A row's budget, round plus ``row_bytes(M, n, |I|)``, bounds the run.

    At a cap of exactly that budget every row runs and the whole run's
    tracemalloc peak stays within it; one byte lower every row is skipped.
    The round holds, per lattice point, the weights, density and real
    values; per frequency the frequencies, residues and reference and full
    coefficients; the fixed bytes; and its largest phase: the kink (the
    points computed for it and two temporaries), the full adjoint's complex
    copy and spectrum and its gather, or one solve (per draw indices,
    reweights, masked values and their product; per point the Hermitian
    apply's weights and two buffers; per frequency the solve's vectors and
    the apply's index and scales).  A first run fills the lattice cache and
    imports ``numpy.fft``, which the budget does not count.
    """
    (R,) = cfg.radii
    d, index_set = cfg.dimension, hyperbolic_cross(cfg.dimension, cfg.gamma, R)
    run(cfg)
    M, m = latsub.experiments._lattice_for(cfg, index_set, R).size, len(index_set)
    n = math.ceil(m * math.log(m))
    needed = (24 * M + m * (8 * d + 32)
              + max((8 * d + 16) * M, 32 * M + 16 * m, 24 * M + 32 * n + 128 * m)
              + latsub.experiments._FIXED_BYTES + row_bytes(M, n, m))
    tracemalloc.start()
    try:
        rows = run(replace(cfg, memory_cap_bytes=needed)).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.skipped for r in rows)
    assert 0 < peak <= needed
    rows = run(replace(cfg, memory_cap_bytes=needed - 1)).rows
    assert [r.skip_reason for r in rows] == [
        f"needs {needed} bytes, over the memory cap of {needed - 1}"] * len(rows)


class TestConfig:
    def test_radii_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ExperimentConfig(radii=(8.0, 4.0))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategies"):
            ExperimentConfig(strategies=("full", "mystery"))

    def test_repetitions_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)


class TestStrategyTable:
    def test_seed_streams_pinned(self):
        # a strategy's position in the table is its seed stream: reordering
        # the table would silently change every derived seed
        assert {s: _derived_seed(7, 0, s, 0) for s in KNOWN_STRATEGIES} == {
            "full": 8460147692890830636,
            "random_sub": 5730826186778930994,
            "bss_sub": 266270478720369778,
            "continuous_random": 5093101976529578930,
        }

    def test_full_adjoint_once_per_radius(self, tmp_path, monkeypatch):
        real = LatticeOperator.adjoint
        calls = []

        def counted(self, values):
            calls.append(1)
            return real(self, values)

        monkeypatch.setattr(LatticeOperator, "adjoint", counted)
        cfg = desk_config(tmp_path, radii=(4.0, 8.0), repetitions=3,
                          strategies=("full",))
        rows = run_experiment_1(cfg).rows
        assert len(rows) == 6 and not any(r.skipped for r in rows)
        assert len(calls) == 2

    def test_solver_value_error_propagates(self, tmp_path, monkeypatch):
        # only bss_sub turns a ValueError into a skipped row
        def refuse(*args):
            raise ValueError("injected solver refusal")

        monkeypatch.setattr(latsub.experiments, "least_squares", refuse)
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1,
                          strategies=("random_sub",))
        with pytest.raises(ValueError, match="injected solver refusal"):
            run_experiment_1(cfg)


class TestRunExperiment1:
    def test_rows_and_contracts(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        assert report.kind == "exp1"
        assert len(report.rows) == len(cfg.radii) * len(cfg.strategies) * 2
        for r in report.rows:
            assert not r.skipped
            assert r.total_error**2 == pytest.approx(
                r.truncation_error**2 + r.aliasing_error**2, rel=1e-12)
            m = r.num_frequencies
            if r.strategy == "full":
                assert r.num_points >= m
            else:
                assert r.num_points == math.ceil(m * math.log(m))

    def test_full_strategy_identical_across_repetitions(self, tmp_path):
        report = run_experiment_1(desk_config(tmp_path))
        full = [r for r in report.rows if r.strategy == "full"]
        by_radius = {}
        for r in full:
            by_radius.setdefault(r.radius, []).append(r)
        for rows in by_radius.values():
            assert len({(r.num_points, r.aliasing_error) for r in rows}) == 1

    def test_lattice_cache_reused(self, tmp_path):
        cfg = desk_config(tmp_path)
        run_experiment_1(cfg)
        cache = os.path.join(cfg.output_dir, "lattice_cache")
        files = sorted(os.listdir(cache))
        assert len(files) == len(cfg.radii)
        run_experiment_1(cfg)  # second run hits the cache
        assert sorted(os.listdir(cache)) == files

    def test_lattice_cache_keyed_by_schedule(self, tmp_path):
        # a file named as before the schedule joined the key is never read,
        # even when its lattice reconstructs; the name keeps its _R<radius>_
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("full",))
        I = hyperbolic_cross(cfg.dimension, cfg.gamma, 8.0)
        cache = tmp_path / "out" / "lattice_cache"
        cache.mkdir(parents=True)
        old = cache / f"lat_d2_g{cfg.gamma!r}_R8.0_s{cfg.seed}.txt"
        stale = search_generator(I, rng_seed=cfg.seed, m_schedule=[1009])
        stale.save(old)
        (row,) = run_experiment_1(cfg).rows
        lat = search_generator(I, rng_seed=cfg.seed)
        assert lat.size != stale.size and row.num_points == lat.size
        assert old.read_text() == stale.to_line() + "\n"
        (new,) = set(cache.glob("*_R8.0_*.txt")) - {old}
        assert new.name.endswith(f"_{_DEFAULT_SCHEDULE_NAME}.txt")
        assert new.read_text() == lat.to_line() + "\n"

    def test_dense_build_counts_as_subsample_time(self, tmp_path, monkeypatch):
        # the dense operator build takes 100 s and the solve 1000 s; the
        # uniform draw itself takes no fake time
        ticking = fake_clock(monkeypatch)
        for name, cost in [("DenseOperator", 100.0), ("least_squares", 1000.0)]:
            monkeypatch.setattr(latsub.experiments, name,
                                ticking(getattr(latsub.experiments, name), cost))
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1,
                          strategies=("continuous_random",))
        (row,) = run_experiment_1(cfg).rows
        assert not row.skipped
        assert row.subsample_time_s == 100.0
        assert row.solve_time_s == 1000.0

    def test_dense_estimate_counts_one_matrix(self, tmp_path):
        # the operator holds one real n x |I| float32 matrix; per point the
        # points and their copy, the build's phases, cos table and float32
        # tone tables or the kink's temporaries, values, weights, and a row
        # temporary, the right-hand side and its cast, or a normal apply's
        # vector; per frequency the build's keys and the solve's vectors
        for d in (2, 5):
            cfg = desk_config(tmp_path, dimension=d, radii=(8.0,), repetitions=1,
                              strategies=("continuous_random",))
            assert_budget_bounds_run(run_experiment_1, cfg, lambda M, n, m: (
                4 * n * m + n * (36 * d + 32) + m * (8 * d + 160)))

    def test_row_estimate_alone_does_not_fit(self, tmp_path):
        # a cap at the row's own bytes leaves nothing for the round it runs on
        m = len(hyperbolic_cross(5, 0.5, 8.0))
        n = math.ceil(m * math.log(m))
        own = 4 * n * m + n * (36 * 5 + 32) + m * (8 * 5 + 160) + latsub.experiments._FIXED_BYTES
        cfg = desk_config(tmp_path, dimension=5, radii=(8.0,), repetitions=1,
                          strategies=("continuous_random",), memory_cap_bytes=own)
        (row,) = run_experiment_1(cfg).rows
        assert row.skipped
        assert row.skip_reason.endswith(f"over the memory cap of {own}")

    @pytest.mark.parametrize("d, R", [(2, 16.0), (5, 10.0), (5, 12.0), (5, 16.0)])
    def test_bss_estimate_counts_the_row(self, tmp_path, d, R):
        # two |I| x |I| matrices at a time (a Gram and its eigensolver copy,
        # or the resolvent and its identity); per frequency the greedy's two
        # queues; per lattice point the weight spectrum's copies or the
        # greedy's transform buffers; per draw the draw, its plan's copies,
        # its grouping and the greedy's scores
        cfg = desk_config(tmp_path, dimension=d, radii=(R,), repetitions=1,
                          strategies=("bss_sub",))
        assert_budget_bounds_run(run_experiment_2, cfg, lambda M, n, m: (
            16 * m * m + 512 * m + 96 * M + 128 * n))

    def test_lattice_estimate_counts_the_round(self, tmp_path):
        # d = 2, R = 16 is a round small enough for the fixed bytes to
        # dominate; d = 5, R = 16 is one the summed phases overestimated
        # twofold.  A full or random_sub row holds nothing of its own.
        for d, radius in ((5, 8.0), (2, 16.0), (5, 16.0)):
            cfg = desk_config(tmp_path, dimension=d, radii=(radius,), repetitions=1,
                              strategies=("full", "random_sub"))
            assert_budget_bounds_run(run_experiment_1, cfg, lambda M, n, m: 0)

    def test_memory_cap_skips_with_reason(self, tmp_path):
        cfg = desk_config(tmp_path, memory_cap_bytes=40_000,
                          strategies=("full", "continuous_random"))
        report = run_experiment_1(cfg)
        skipped = [r for r in report.rows if r.skipped]
        assert skipped
        assert all(r.skip_reason for r in skipped)
        assert check_report(report) == []  # skipping is not a violation


class TestPinnedOutputs:
    """Outputs recorded while lattice plans still stored their points.

    The ``continuous_random`` rows were recorded again once the dense
    baseline stored its matrix in float32.  Point counts, seeds, |I| and the
    cached lattice lines compare exactly.
    The errors compare within 1e-12 relative: the dense rows differ in their
    last digits between BLAS thread counts.  A change that moves outputs on
    purpose updates these values and says so.
    """

    LATTICES = {4.0: "2 29 28 5", 8.0: "2 59 22 38"}
    # (radius, strategy, repetition): (|I|, points, seed, truncation, aliasing, total)
    EXP1 = {
        (4.0, "full", 0): (13, 29, 7, 0.09006369740400784, 0.017336914219358963, 0.09171716406829258),
        (4.0, "full", 1): (13, 29, 7, 0.09006369740400784, 0.017336914219358963, 0.09171716406829258),
        (4.0, "random_sub", 0): (13, 34, 5730826186778930994, 0.09006369740400784, 0.05985856462947346, 0.10814119173368462),
        (4.0, "random_sub", 1): (13, 34, 7772559887313084161, 0.09006369740400784, 0.04609549339155075, 0.10117442414509305),
        (4.0, "continuous_random", 0): (13, 34, 5093101976529578930, 0.09006369740400784, 0.06031360273971507, 0.10839372798056561),
        (4.0, "continuous_random", 1): (13, 34, 913400366549931948, 0.09006369740400784, 0.04600139606587181, 0.10113158769687093),
        (8.0, "full", 0): (29, 59, 7, 0.03287105137195121, 0.01635090380706413, 0.03671318664465562),
        (8.0, "full", 1): (29, 59, 7, 0.03287105137195121, 0.01635090380706413, 0.03671318664465562),
        (8.0, "random_sub", 0): (29, 98, 2048857388707803343, 0.03287105137195121, 0.030380601110094267, 0.04476032777033829),
        (8.0, "random_sub", 1): (29, 98, 3121033225316537670, 0.03287105137195121, 0.023449795922915923, 0.04037819890886492),
        (8.0, "continuous_random", 0): (29, 98, 7964965305340474863, 0.03287105137195121, 0.02767745673530693, 0.042971474603883945),
        (8.0, "continuous_random", 1): (29, 98, 1045227425872043019, 0.03287105137195121, 0.027519077925960093, 0.042869635736643714),
    }
    EXP2 = {
        (4.0, "bss_sub", 0): (13, 26, 266270478720369778, 0.09006369740400784, 0.03890472635185873, 0.09810732552971618),
        (4.0, "bss_sub", 1): (13, 26, 7882089576940760838, 0.09006369740400784, 0.07374051744804515, 0.1164007452879325),
        (8.0, "bss_sub", 0): (29, 58, 3418810207754707518, 0.03287105137195121, 0.033649325456170345, 0.047040228761696404),
        (8.0, "bss_sub", 1): (29, 58, 789219003664472821, 0.03287105137195121, 0.025978716212512985, 0.04189749054952743),
    }

    @pytest.mark.parametrize("run, strategies, expected", [
        (run_experiment_1, ("full", "random_sub", "continuous_random"), EXP1),
        (run_experiment_2, ("bss_sub",), EXP2),
    ], ids=["exp1", "exp2"])
    def test_rows_and_lattices_unchanged(self, tmp_path, run, strategies, expected):
        cfg = ExperimentConfig(dimension=2, gamma=0.5, radii=(4.0, 8.0), repetitions=2,
                               seed=7, strategies=strategies, output_dir=str(tmp_path))
        rows = run(cfg).rows
        assert [(r.radius, r.strategy, r.repetition) for r in rows] == list(expected)
        for r in rows:
            m, n, seed, *errors = expected[r.radius, r.strategy, r.repetition]
            assert not r.skipped
            assert (r.num_frequencies, r.num_points, r.seed) == (m, n, seed)
            got = [r.truncation_error, r.aliasing_error, r.total_error]
            assert got == pytest.approx(errors, rel=1e-12, abs=0)
        for radius, line in self.LATTICES.items():
            (path,) = (tmp_path / "lattice_cache").glob(f"*_R{radius!r}_*.txt")
            assert path.read_text() == line + "\n"


class TestRunExperiment2:
    def test_pipeline_contracts(self, tmp_path):
        # structural contracts only: the aliasing-below-truncation finding is
        # a production-scale (d = 5) property, covered by the acceptance suite
        cfg = desk_config(tmp_path, strategies=("full", "random_sub", "bss_sub"))
        report = run_experiment_2(cfg)
        bss_rows = [r for r in report.rows if r.strategy == "bss_sub"]
        assert bss_rows
        for r in bss_rows:
            if r.skipped:
                continue
            assert r.num_points <= math.ceil(cfg.b * r.num_frequencies)
            assert r.bss_time_s >= 0.0
            assert np.isfinite(r.total_error)

    def test_bss_strategy_added_if_missing(self, tmp_path):
        cfg = desk_config(tmp_path, strategies=("full",))
        report = run_experiment_2(cfg)
        assert "bss_sub" in report.config.strategies

    def test_infeasible_b_rejected(self, tmp_path):
        cfg = desk_config(tmp_path, strategies=("full", "bss_sub"), radii=(4.0,))
        m = 13  # |I| for d=2, gamma=1/2, R=4
        bad = ExperimentConfig(**{**cfg.__dict__, "b": 1.0 + 0.5 / m})
        with pytest.raises(ValueError, match="1 \\+ 1/"):
            run_experiment_2(bad)

    def test_certificate_miss_retries_with_next_draw(self, tmp_path, monkeypatch):
        real = latsub.experiments.plain_bss_subsample
        seeds = []

        def miss_once(sel, index_set, b):
            seeds.append(sel.seed)
            if len(seeds) == 1:
                raise SpectralCertificateError("injected certificate miss")
            return real(sel, index_set, b)

        monkeypatch.setattr(latsub.experiments, "plain_bss_subsample", miss_once)
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("bss_sub",))
        (row,) = run_experiment_2(cfg).rows
        assert not row.skipped
        assert len(seeds) == 2 and seeds[1] > seeds[0]
        assert row.seed == seeds[1]
        assert row.num_points <= math.ceil(cfg.b * row.num_frequencies)

    def test_bss_times_sum_over_every_attempt(self, tmp_path, monkeypatch):
        # each draw takes 1 s, each rank check 10 s, the missed sparsification
        # 100 s and the accepted one 1000 s
        ticking = fake_clock(monkeypatch)
        real_plain = latsub.experiments.plain_bss_subsample
        calls = []

        def miss_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise SpectralCertificateError("injected certificate miss")
            return real_plain(*args)

        for name, fn, cost in [
            ("random_subsample", latsub.experiments.random_subsample, 1.0),
            ("mz_constants", latsub.experiments.mz_constants, 10.0),
            ("plain_bss_subsample", miss_once, lambda: 100.0 if not calls else 1000.0),
        ]:
            monkeypatch.setattr(latsub.experiments, name, ticking(fn, cost))
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("bss_sub",))
        (row,) = run_experiment_2(cfg).rows
        assert not row.skipped and len(calls) == 2
        assert row.subsample_time_s == 2 * (1.0 + 10.0)
        assert row.bss_time_s == 100.0 + 1000.0

    @pytest.mark.parametrize("name", ["plain_bss_subsample", "mz_constants"])
    def test_eight_failed_attempts_skip_the_row(self, tmp_path, monkeypatch, name):
        # every sparsification misses its certificate, or every stage-1 draw
        # is rank-deficient: the row gives up after eight draws
        calls = []

        def fail(*args):
            calls.append(1)
            if name == "mz_constants":
                return SpectralBounds(0.0, 1.0)
            raise SpectralCertificateError("injected certificate miss")

        monkeypatch.setattr(latsub.experiments, name, fail)
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("bss_sub",))
        report = run_experiment_2(cfg)
        (row,) = report.rows
        assert row.skipped
        assert row.skip_reason == "no certifiable stage-1 draw in 8 attempts"
        assert len(calls) == 8
        assert check_report(report) == []

    @pytest.mark.parametrize("name", ["plain_bss_subsample", "mz_constants"])
    def test_value_error_skips_row_with_message(self, tmp_path, monkeypatch, name):
        def refuse(*args):
            raise ValueError(f"injected refusal in {name}")

        monkeypatch.setattr(latsub.experiments, name, refuse)
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("bss_sub",))
        (row,) = run_experiment_2(cfg).rows
        assert row.skipped
        assert row.skip_reason == f"injected refusal in {name}"


class TestRealPaths:
    def test_pipeline_runs_only_the_real_paths(self, tmp_path, monkeypatch):
        # every cross is symmetric and every sample real, so no strategy
        # reaches the complex normal operator, the complex characters (under
        # any name they are imported as), the complex Gram or the dense
        # scorer; the certificates and the greedy take the lattice's real
        # Gram and rows
        calls = {}

        def count(owner, name):
            key = f"{owner.__name__}.{name}"
            fn, calls[key] = getattr(owner, name), 0

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
            return key

        idle = [count(owner, name) for owner, name in [
            (SystemOperator, "normal"), (latsub.fourier, "_characters"),
            (latsub.mz, "_characters"), (latsub.subsampling, "_characters"),
            (latsub.mz, "gram_matrix"), (LatticeOperator, "gram"),
            (latsub.subsampling, "_dense_scorer")]]
        busy = [count(owner, name) for owner, name in [
            (LatticeOperator, "real_normal"), (DenseOperator, "real_normal"),
            (LatticeOperator, "real_gram"), (LatticeOperator, "real_rows")]]
        report = run_experiment_2(desk_config(tmp_path, strategies=KNOWN_STRATEGIES))
        assert {r.strategy for r in report.rows if not r.skipped} == set(KNOWN_STRATEGIES)
        assert {key: calls[key] for key in idle} == dict.fromkeys(idle, 0)
        assert all(calls[key] > 0 for key in busy), calls


class TestReports:
    def test_emit_csv_and_json(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        paths = emit_report(report, "both")
        names = {os.path.basename(p) for p in paths}
        assert names == {
            "error_vs_frequencies.csv", "points_vs_frequencies.csv",
            "error_vs_points.csv", "time_vs_frequencies.csv", "report.json"}
        header = Path(paths[0]).read_text().splitlines()[0].split(",")
        assert {"truncation_min", "truncation_avg", "truncation_max"} <= set(header)

    def test_json_round_trip(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        emit_report(report, "json")
        with open(os.path.join(cfg.output_dir, "report.json")) as fh:
            data = json.load(fh)
        again = ExperimentReport.from_json_dict(data)
        assert again.config == report.config
        assert again.rows == report.rows
        assert again.kind == report.kind

    def test_unknown_format_is_refused(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = ExperimentReport(kind="exp1", config=cfg)
        with pytest.raises(ValueError, match="'csv', 'json' or 'both', got 'xml'"):
            emit_report(report, "xml")
        assert not os.path.exists(cfg.output_dir)  # nothing written

    def test_empty_report_header_only(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = ExperimentReport(kind="exp1", config=cfg)
        paths = emit_report(report, "csv")
        for p in paths:
            lines = Path(p).read_text().splitlines()
            assert len(lines) == 1  # header only

    def test_determinism_byte_identical_modulo_timing(self, tmp_path):
        cfg_a = desk_config(tmp_path, subdir="a")
        cfg_b = desk_config(tmp_path, subdir="b")
        rep_a = run_experiment_1(cfg_a)
        rep_b = run_experiment_1(cfg_b)
        paths_a = emit_report(rep_a, "csv")
        paths_b = emit_report(rep_b, "csv")
        for pa, pb in zip(paths_a, paths_b):
            if "time" in os.path.basename(pa):
                continue  # timing panel excluded from the determinism check
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_check_report_flags_bad_counts(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        row = report.rows[-1]
        row.num_points += 1
        if row.strategy != "full":
            assert any("point count" in p for p in check_report(report))

    @pytest.mark.parametrize("strategy, broken, problem", [
        ("full", dict(skipped=True), "skipped without a reason"),
        ("full", dict(total_error=1.0), "error decomposition violated"),
        ("full", dict(truncation_error=0.1, aliasing_error=0.2),
         "aliasing 2.000e-01 exceeds truncation 1.000e-01"),
        ("random_sub", dict(num_points=35), "point count 35 != 34"),
        ("bss_sub", dict(num_points=27), "point count 27 exceeds ceil(b*|I|)"),
        ("continuous_random", dict(num_points=33), "point count 33 != 34"),
    ])
    def test_check_report_names_each_broken_row(self, tmp_path, strategy, broken, problem):
        # hand-built rows: |I| = 13, so n = ceil(13 ln 13) = 34 and
        # ceil(b |I|) = 26 at b = 2; each broken row fails exactly one check
        def row(strategy, **over):
            points = {"full": 29, "bss_sub": 26}.get(strategy, 34)
            fields = dict(radius=4.0, strategy=strategy, repetition=0,
                          num_frequencies=13, num_points=points,
                          truncation_error=0.2, aliasing_error=0.1,
                          total_error=math.hypot(0.2, 0.1), setup_time_s=0.0,
                          subsample_time_s=0.0, solve_time_s=0.0, bss_time_s=0.0,
                          seed=0)
            fields.update(over)
            if "truncation_error" in over:
                fields["total_error"] = math.hypot(fields["truncation_error"],
                                                   fields["aliasing_error"])
            return ExperimentRow(**fields)

        good = [row(s) for s in KNOWN_STRATEGIES]
        good.append(row("random_sub", num_points=1, skipped=True, skip_reason="cap"))
        report = ExperimentReport(kind="exp2", config=desk_config(tmp_path), rows=good)
        assert check_report(report) == []
        report.rows.append(row(strategy, **broken))
        tag = f"[{strategy} R=4.0 rep=0]"
        assert check_report(report) == [f"{tag} {problem}"]

    def test_matched_point_ratios_need_baseline_rows(self, tmp_path):
        report = ExperimentReport(kind="exp1", config=desk_config(tmp_path), rows=[])
        with pytest.raises(ValueError, match="no rows for baseline strategy 'full'"):
            error_at_matched_points(report)

    def test_matched_point_ratios(self, tmp_path):
        # structural checks; the 1.05 median threshold is a d = 5 acceptance
        # criterion and lives in the acceptance suite
        cfg = desk_config(tmp_path, radii=(4.0, 8.0, 16.0, 32.0))
        report = run_experiment_1(cfg)
        ratios = error_at_matched_points(report, "random_sub", "full")
        assert len(ratios) == len(cfg.radii)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
