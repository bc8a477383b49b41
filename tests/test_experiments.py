"""Experiment harness: contracts, determinism, reports."""

import json
import math
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import latsub.experiments
from latsub.experiments import (
    KNOWN_STRATEGIES,
    ExperimentConfig,
    ExperimentReport,
    _derived_seed,
    check_report,
    emit_report,
    error_at_matched_points,
    run_experiment_1,
    run_experiment_2,
)
from latsub.fourier import LatticeOperator, _circulant_length
from latsub.index_sets import hyperbolic_cross
from latsub.subsampling import SpectralCertificateError

DESK = dict(dimension=2, gamma=0.5, radii=(4.0, 8.0, 16.0), repetitions=2, seed=3)


def fake_clock(monkeypatch):
    """Replace the experiments clock; ``ticking(fn, cost)`` wraps ``fn`` so
    each call advances it by ``cost`` (a number, or a function giving one)."""
    now = [0.0]
    monkeypatch.setattr(latsub.experiments, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))

    def ticking(fn, cost):
        def timed(*args):
            now[0] += cost() if callable(cost) else cost
            return fn(*args)
        return timed

    return ticking


def desk_config(tmp_path, **over):
    fields = dict(DESK)
    fields["output_dir"] = str(tmp_path / over.pop("subdir", "out"))
    fields.update(over)
    return ExperimentConfig(**fields)


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
        # the operator holds one complex n x |I| matrix; the two complex
        # d x n tone tables, the points and the values come on top
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1,
                          strategies=("continuous_random",))
        m = len(hyperbolic_cross(2, 0.5, 8.0))
        n = math.ceil(m * math.log(m))
        needed = 16 * n * m + n * (32 * 2 + 8 * 2 + 16)
        (row,) = run_experiment_1(replace(cfg, memory_cap_bytes=needed)).rows
        assert not row.skipped
        (row,) = run_experiment_1(replace(cfg, memory_cap_bytes=needed - 1)).rows
        assert row.skipped and "exceeds the memory cap" in row.skip_reason

    def test_lattice_estimate_counts_the_round(self, tmp_path):
        # per lattice point the points and the kink's two M x d temporaries,
        # weights, density, real and complex values; per frequency the
        # frequencies, reference and full coefficients and the five CG
        # vectors; per draw indices, reweights and masked values; the normal
        # operator's two complex buffers of the circulant length
        cfg = desk_config(tmp_path, dimension=5, radii=(8.0,), repetitions=1,
                          strategies=("full", "random_sub"))
        full, _ = run_experiment_1(cfg).rows  # also fills the lattice cache
        M, m = full.num_points, full.num_frequencies
        n = math.ceil(m * math.log(m))
        needed = (M * (24 * 5 + 40) + m * (8 * 5 + 112) + 32 * n
                  + 32 * _circulant_length(M))
        rows = run_experiment_1(replace(cfg, memory_cap_bytes=needed)).rows
        assert not any(r.skipped for r in rows)
        rows = run_experiment_1(replace(cfg, memory_cap_bytes=needed - 1)).rows
        assert all(r.skipped and "exceeds the memory cap" in r.skip_reason for r in rows)
        tracemalloc.start()
        try:
            run_experiment_1(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needed

    def test_memory_cap_skips_with_reason(self, tmp_path):
        cfg = desk_config(tmp_path, memory_cap_bytes=40_000,
                          strategies=("full", "continuous_random"))
        report = run_experiment_1(cfg)
        skipped = [r for r in report.rows if r.skipped]
        assert skipped
        assert all(r.skip_reason for r in skipped)
        assert check_report(report) == []  # skipping is not a violation


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
    def test_value_error_skips_row_with_message(self, tmp_path, monkeypatch, name):
        def refuse(*args):
            raise ValueError(f"injected refusal in {name}")

        monkeypatch.setattr(latsub.experiments, name, refuse)
        cfg = desk_config(tmp_path, radii=(8.0,), repetitions=1, strategies=("bss_sub",))
        (row,) = run_experiment_2(cfg).rows
        assert row.skipped
        assert row.skip_reason == f"injected refusal in {name}"


class TestReports:
    def test_emit_csv_and_json(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        paths = emit_report(report, "both")
        names = {os.path.basename(p) for p in paths}
        assert names == {
            "error_vs_frequencies.csv", "points_vs_frequencies.csv",
            "error_vs_points.csv", "time_vs_frequencies.csv", "report.json"}
        header = open(paths[0]).readline().strip().split(",")
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

    def test_empty_report_header_only(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = ExperimentReport(kind="exp1", config=cfg)
        paths = emit_report(report, "csv")
        for p in paths:
            lines = open(p).read().splitlines()
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
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_check_report_flags_bad_counts(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment_1(cfg)
        row = report.rows[-1]
        row.num_points += 1
        if row.strategy != "full":
            assert any("point count" in p for p in check_report(report))

    def test_matched_point_ratios(self, tmp_path):
        # structural checks; the 1.05 median threshold is a d = 5 acceptance
        # criterion and lives in the acceptance suite
        cfg = desk_config(tmp_path, radii=(4.0, 8.0, 16.0, 32.0))
        report = run_experiment_1(cfg)
        ratios = error_at_matched_points(report, "random_sub", "full")
        assert len(ratios) == len(cfg.radii)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
