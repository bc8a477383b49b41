"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest -m acceptance -s`` to see the per-criterion lines as they
complete.  Each test enforces its stated tolerance and runtime budget.  The
experiment reproductions follow the production settings (d = 5, gamma = 1/2,
kink test function); radius schedules start at R = 4 because the |I| = 11
cross with only 27 random draws sits below the regime where the aliasing
finding holds.  Experiment 2 runs 5 repetitions to fit its budget on a small
machine; every repetition is checked.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from latsub.experiments import (
    ExperimentConfig,
    emit_report,
    error_at_matched_points,
    run_experiment_1,
    run_experiment_2,
)
from latsub.fourier import DenseOperator, LatticeOperator
from latsub.index_sets import (
    IndexSet,
    hyperbolic_cross,
    select_largest_eigenvalues,
)
from latsub.lattice import Rank1Lattice, SamplePlan, search_generator
from latsub.mz import SpectralBounds, mz_constants, quadrature_exactness
from latsub.solver import SolverConfig, least_squares
from latsub.subsampling import (
    bss_subsample,
    density_weights,
    kappa,
    plain_bss_subsample,
    random_subsample,
    random_subsample_size,
)
from latsub.testfunctions import KINK_SCALE, kink_coeff_1d

pytestmark = pytest.mark.acceptance


def _report(num: int, ok: bool, detail: str, elapsed: float, budget_s: float):
    verdict = "PASS" if ok and elapsed <= budget_s else "FAIL"
    print(f"{verdict} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget_s, f"criterion {num} exceeded its runtime budget"


def tight_plan_for(index_set, seed):
    lat = search_generator(index_set, rng_seed=seed)
    return lat, SamplePlan(weights=np.full(lat.size, 1.0 / lat.size),
                           bounds=SpectralBounds(1.0, 1.0), lattice=lat)


def trimmed_cross(d, gamma, m, s=1.5):
    """A deterministic index set of exactly m frequencies (largest-eigenvalue
    subset of a hyperbolic cross that is just large enough)."""
    R = 2.0
    while True:
        cross = hyperbolic_cross(d, gamma, R)
        if len(cross) >= m:
            return select_largest_eigenvalues(cross, m, s)
        R *= 2.0


def test_criterion_1_exact_quadrature_tightness():
    """MZ constants A = B = 1 (1e-9) and exact quadrature on >= 20 lattices."""
    start = time.perf_counter()
    cases = [
        (1, 1.0, [4.0, 16.0, 64.0, 256.0, 990.0]),
        (2, 1.0, [2.0, 4.0, 12.0, 32.0, 64.0]),
        (3, 1.0, [2.0, 4.0, 8.0, 14.0]),
        (5, 0.5, [2.0, 4.0, 8.0, 12.0, 16.0, 24.0]),
    ]
    checked = 0
    worst_gap = 0.0
    for d, gamma, radii in cases:
        for i, R in enumerate(radii):
            I = hyperbolic_cross(d, gamma, R)
            assert len(I) <= 2000, (d, R, len(I))
            lat, plan = tight_plan_for(I, seed=i)
            bounds = mz_constants(plan, I)
            worst_gap = max(worst_gap, abs(bounds.A - 1), abs(bounds.B - 1))
            exact = quadrature_exactness(plan, I, tol=1e-9)
            assert exact is not None and abs(exact - 1.0) <= 1e-9, (d, R)
            checked += 1
    ok = checked >= 20 and worst_gap <= 1e-9
    _report(1, ok,
            f"{checked} reconstructing lattices, max |A-1|,|B-1| = {worst_gap:.2e}",
            time.perf_counter() - start, 120)


def test_criterion_2_operator_correctness():
    """FFT vs dense oracle to 1e-11 relative; adjointness to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_op = 0.0
    worst_adj = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        kmax = int(rng.integers(1, 5))
        freqs = np.unique(rng.integers(-kmax, kmax + 1, size=(30, d)), axis=0)
        I = IndexSet(dimension=d, frequencies=freqs)
        M = int(rng.integers(len(I), min(10**6 // len(I), 8000)))
        lat = Rank1Lattice(dimension=d, generator=rng.integers(0, M, d), size=M)
        assert len(I) * M <= 10**6
        fft_op = LatticeOperator(lat, I)
        dense_op = DenseOperator(lat.points(), I)
        a = rng.standard_normal(len(I)) + 1j * rng.standard_normal(len(I))
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        fw_f, fw_d = fft_op.forward(a), dense_op.forward(a)
        ad_f, ad_d = fft_op.adjoint(f), dense_op.adjoint(f)
        worst_op = max(
            worst_op,
            np.max(np.abs(fw_f - fw_d)) / np.max(np.abs(fw_d)),
            np.max(np.abs(ad_f - ad_d)) / np.max(np.abs(ad_d)),
        )
        pairing_gap = abs(np.vdot(f, fw_f) - np.vdot(ad_f, a))
        worst_adj = max(
            worst_adj, pairing_gap / (np.linalg.norm(a) * np.linalg.norm(f)))
    ok = worst_op <= 1e-11 and worst_adj <= 1e-12
    _report(2, ok,
            f"100 instances, worst fft-vs-dense {worst_op:.2e}, "
            f"worst adjointness {worst_adj:.2e}",
            time.perf_counter() - start, 60)


def test_criterion_3_random_subsampling_stability():
    """Stage-1 lower constant >= A/2 in at least 73% of 200 trials."""
    start = time.perf_counter()
    hits = 0
    trials = 0
    for m, count, d in ((32, 67, 2), (64, 67, 2), (128, 66, 3)):
        I = trimmed_cross(d, 1.0, m)
        lat, plan = tight_plan_for(I, seed=m)
        rho = density_weights(plan)
        n = random_subsample_size(1.0, 1.0, 1.0 / 3.0, m, 1.0)
        for t in range(count):
            sel = random_subsample(plan, rho, n, seed=1000 * m + t)
            if mz_constants(sel.as_plan(), I).A >= 0.5:
                hits += 1
            trials += 1
    rate = hits / trials
    _report(3, rate >= 0.73,
            f"observed stability rate {rate:.3f} over {trials} trials "
            f"(floor 0.73)",
            time.perf_counter() - start, 300)


def test_criterion_4_sparsification_certificates():
    """Two-sided weighted bounds and plain lower bounds on 50 systems."""
    start = time.perf_counter()
    sizes = [8] * 10 + [12] * 10 + [16] * 10 + [24] * 10 + [32] * 8 + [64] * 2
    assert len(sizes) == 50
    b_weighted = 16.0
    kap = kappa(1.0, 1.0)
    assert b_weighted > kap * kap
    upper_cap = 1.5 * (math.sqrt(b_weighted) + 1) ** 2 / (
        (math.sqrt(b_weighted) - 1) * (math.sqrt(b_weighted) - kap))
    checked = 0
    for idx, m in enumerate(sizes):
        d = 2 if m <= 24 else 3
        I = trimmed_cross(d, 1.0, m)
        lat, plan = tight_plan_for(I, seed=idx)
        rho = density_weights(plan)
        n = math.ceil(5 * m * (math.log(m) + 1))
        sel = None
        for attempt in range(10):
            cand = random_subsample(plan, rho, n, seed=31 * idx + attempt)
            window = mz_constants(cand.as_plan(), I)
            if window.A >= 0.5 and window.B <= 1.5:
                sel = cand
                break
        assert sel is not None, f"no stage-1 window hit for instance {idx}"

        out_w = bss_subsample(sel, I, b_weighted)
        bw = mz_constants(out_w.as_plan(), I)  # independent dense eigensolve
        assert len(out_w) <= math.ceil(b_weighted * m)
        assert bw.A >= 0.5 * (1 - 1e-9), (idx, bw)
        assert bw.B <= upper_cap * (1 + 1e-9), (idx, bw)
        assert np.all(out_w.bss_weights >= 0)

        for b in (2.0, 4.0):
            out_p = plain_bss_subsample(sel, I, b)
            bp = mz_constants(out_p.as_plan(), I)
            certified = (b - 1) ** 3 / (178 * (b + 1) ** 2)
            assert len(out_p) <= math.ceil(b * m)
            assert bp.A >= certified, (idx, b, bp.A, certified)
        checked += 1
    _report(4, checked == 50,
            f"{checked} stage-1 systems certified (weighted b=16, plain b=2,4)",
            time.perf_counter() - start, 600)


def test_criterion_5_experiment1_reproduction(tmp_path):
    """Scaled five-dimensional comparison of the three sampling strategies."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        dimension=5, gamma=0.5, radii=(4.0, 8.0, 16.0, 24.0, 32.0, 40.0),
        repetitions=10, seed=0,
        strategies=("full", "random_sub", "continuous_random"),
        output_dir=str(tmp_path / "exp1"))
    report = run_experiment_1(cfg)
    max_m = max(r.num_frequencies for r in report.rows)
    assert 2500 <= max_m <= 3200, "schedule should reach |I| of about 3e3"

    failures = []
    for r in report.rows:
        if r.skipped:
            failures.append(f"skipped row: {r.skip_reason}")
            continue
        if r.aliasing_error > r.truncation_error:
            failures.append(
                f"(a) aliasing > truncation [{r.strategy} R={r.radius} "
                f"rep={r.repetition}]")
        if r.strategy == "random_sub":
            want = math.ceil(r.num_frequencies * math.log(r.num_frequencies))
            if r.num_points != want:
                failures.append(f"(b) point count {r.num_points} != {want}")
    ratios = error_at_matched_points(report, "random_sub", "full")
    median_ratio = float(np.median(ratios))
    if median_ratio > 1.05:
        failures.append(f"(c) matched-point median ratio {median_ratio:.3f}")
    emit_report(report, "both")
    _report(5, not failures,
            (failures[0] if failures else
             f"all repetitions clean, matched-point median ratio "
             f"{median_ratio:.3f} <= 1.05, |I| up to {max_m}"),
            time.perf_counter() - start, 900)


def test_criterion_6_experiment2_reproduction(tmp_path):
    """Sparsified pipeline with b = 2 up to |I| of about 1e3."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        dimension=5, gamma=0.5, radii=(4.0, 8.0, 16.0), repetitions=5,
        seed=0, b=2.0, strategies=("full", "random_sub", "bss_sub"),
        output_dir=str(tmp_path / "exp2"))
    report = run_experiment_2(cfg)
    assert max(r.num_frequencies for r in report.rows) == 801

    failures = []
    bss_rows = [r for r in report.rows if r.strategy == "bss_sub"]
    assert len(bss_rows) == len(cfg.radii) * cfg.repetitions
    for r in bss_rows:
        if r.skipped:
            failures.append(f"skipped: {r.skip_reason}")
            continue
        if r.num_points > 2 * r.num_frequencies:
            failures.append(
                f"|X'| = {r.num_points} > 2|I| = {2 * r.num_frequencies}")
        if r.aliasing_error > r.truncation_error:
            failures.append(
                f"aliasing > truncation at R={r.radius} rep={r.repetition}")
        if r.bss_time_s <= 0:
            failures.append("sparsifier time not logged")
    emit_report(report, "both")
    time_panel = os.path.join(cfg.output_dir, "time_vs_frequencies.csv")
    assert "bss_avg" in open(time_panel).readline()
    _report(6, not failures,
            (failures[0] if failures else
             f"{len(bss_rows)} sparsified repetitions: |X'| <= 2|I|, "
             f"aliasing below truncation, sparsifier time logged apart"),
            time.perf_counter() - start, 900)


def test_criterion_7_kink_coefficient_oracle():
    """Closed form vs adaptive quadrature (1e-12); Parseval capture."""
    start = time.perf_counter()
    half = 1.0 / math.sqrt(5.0)

    def oracle(k):
        re = quad(lambda x: KINK_SCALE * max(0.2 - (x - 0.5) ** 2, 0.0)
                  * math.cos(2 * math.pi * k * x),
                  0.5 - half, 0.5 + half,
                  limit=400, epsabs=1e-14, epsrel=1e-14)[0]
        im = quad(lambda x: -KINK_SCALE * max(0.2 - (x - 0.5) ** 2, 0.0)
                  * math.sin(2 * math.pi * k * x),
                  0.5 - half, 0.5 + half,
                  limit=400, epsabs=1e-14, epsrel=1e-14)[0]
        return re, im

    worst = 0.0
    for k in range(-200, 201):
        re, im = oracle(k)
        worst = max(worst, abs(kink_coeff_1d(k) - re), abs(im))
    ks = np.arange(-64, 65)
    captured = float(np.sum(kink_coeff_1d(ks) ** 2))
    ok = worst <= 1e-12 and captured >= 0.999
    _report(7, ok,
            f"closed form within {worst:.2e} of quadrature for |k| <= 200; "
            f"Parseval capture at |k| <= 64 is {captured:.9f}",
            time.perf_counter() - start, 60)


def test_criterion_8_fft_beats_dense():
    """Ordinal performance: lattice-FFT solve path under the dense path."""
    start = time.perf_counter()
    I = hyperbolic_cross(5, 0.5, 24.0)  # |I| = 1321 >= 1e3
    lat, plan = tight_plan_for(I, seed=0)
    rho = density_weights(plan)
    n = math.ceil(len(I) * math.log(len(I)))
    sel = random_subsample(plan, rho, n, seed=1)
    rng = np.random.default_rng(2)
    a_true = rng.standard_normal(len(I)) + 1j * rng.standard_normal(len(I))
    cfg = SolverConfig(max_iterations=10)

    t0 = time.perf_counter()
    fft_op = LatticeOperator(lat, I).masked(sel.indices)
    f = fft_op.forward(a_true)
    a_fft, _ = least_squares(fft_op, sel.reweights, f, cfg)
    fft_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    dense_op = DenseOperator(plan.points[sel.indices], I)
    a_dense, _ = least_squares(dense_op, sel.reweights, f, cfg)
    dense_time = time.perf_counter() - t0

    assert np.max(np.abs(a_fft - a_dense)) < 1e-8
    ok = fft_time < dense_time
    _report(8, ok,
            f"|I| = {len(I)}, n = {n}: fft path {fft_time:.2f}s vs dense "
            f"path {dense_time:.2f}s",
            time.perf_counter() - start, 600)


def test_criterion_9_determinism(tmp_path):
    """Byte-identical reports for identical configs (timing panel excluded)."""
    start = time.perf_counter()

    def run_twice(runner, kind, **kw):
        outputs = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig(
                dimension=2, gamma=0.5, radii=(4.0, 8.0), repetitions=2,
                seed=7, b=2.0, output_dir=str(tmp_path / f"{kind}_{tag}"), **kw)
            report = runner(cfg)
            paths = emit_report(report, "both")
            outputs.append(sorted(paths))
        return outputs

    ok = True
    detail = []
    for runner, kind, kw in (
        (run_experiment_1, "exp1",
         dict(strategies=("full", "random_sub", "continuous_random"))),
        (run_experiment_2, "exp2",
         dict(strategies=("full", "random_sub", "bss_sub"))),
    ):
        paths_a, paths_b = run_twice(runner, kind, **kw)
        for pa, pb in zip(paths_a, paths_b):
            name = os.path.basename(pa)
            if name == "time_vs_frequencies.csv":
                continue
            if name == "report.json":
                import json

                rows_a = json.load(open(pa))["rows"]
                rows_b = json.load(open(pb))["rows"]
                for ra, rb in zip(rows_a, rows_b):
                    for key in ("setup_time_s", "subsample_time_s",
                                "solve_time_s", "bss_time_s"):
                        ra.pop(key), rb.pop(key)
                if rows_a != rows_b:
                    ok = False
                    detail.append(f"{kind} JSON rows differ")
                continue
            if open(pa, "rb").read() != open(pb, "rb").read():
                ok = False
                detail.append(f"{kind}:{name} differs")
    _report(9, ok,
            "; ".join(detail) if detail else
            "exp1 and exp2 reports byte-identical across reruns "
            "(timing excluded)",
            time.perf_counter() - start, 300)
