"""Tests of the benchmark's independent references and its per-round checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import reference
import tracing

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import latsub  # noqa: E402
from latsub.cli import main as latsub_main  # noqa: E402


@pytest.mark.parametrize(
    "d, radius, size", [(5, 4, 61), (5, 12, 341), (5, 22, 911), (10, 16, 8801), (10, 20, 9201)]
)
def test_cross_sizes(d, radius, size):
    assert len(reference.hyperbolic_cross(d, 0.5, radius)) == size


def test_cross_matches_box_filter():
    # every k in the bounding box |k_j| <= gamma R, kept when the exact product fits
    d, gamma, radius = 3, 0.5, 6.0
    kmax = int(gamma * radius)
    box = itertools.product(range(-kmax, kmax + 1), repeat=d)
    kept = sorted(
        k for k in box
        if math.prod(max(Fraction(1), Fraction(abs(c)) / Fraction(gamma)) for c in k)
        <= Fraction(radius)
    )
    assert reference.hyperbolic_cross(d, gamma, radius) == kept


def test_cross_boundary_is_inside():
    cross = set(reference.hyperbolic_cross(2, 0.5, 4.0))
    assert (1, 1) in cross and (2, 0) in cross and (0, -2) in cross
    assert (2, 1) not in cross and (3, 0) not in cross


def test_cross_agrees_with_latsub():
    for d, radius in [(2, 7.0), (5, 16.0), (10, 14.0)]:
        ref = reference.CrossReference(d, 0.5, radius)
        assert ref.same_set(latsub.hyperbolic_cross(d, 0.5, radius).frequencies)


def test_kink_coefficients_match_adaptive_quadrature():
    kmax = 24
    coeffs = reference.kink_coefficients_1d(kmax)
    a = 1 / math.sqrt(5)
    norm = math.sqrt(quad(lambda u: (0.2 - u * u) ** 2, -a, a)[0])
    for k in range(kmax + 1):
        real = quad(lambda x: (0.2 - (x - 0.5) ** 2) * math.cos(2 * math.pi * k * x),
                    0.5 - a, 0.5 + a, limit=200, epsabs=1e-15)[0] / norm
        assert coeffs[kmax + k] == pytest.approx(real, abs=1e-13)
    np.testing.assert_allclose(coeffs, coeffs[::-1], atol=1e-15)  # even in k
    assert np.max(np.abs(coeffs.imag)) < 1e-14


def test_kink_coefficients_match_latsub_closed_form():
    k = np.arange(-24, 25)
    np.testing.assert_allclose(reference.kink_coefficients_1d(24), latsub.kink_coeff_1d(k),
                               rtol=0, atol=1e-14)


def test_truncation_error_matches_latsub():
    ref = reference.CrossReference(5, 0.5, 8.0)
    I = latsub.hyperbolic_cross(5, 0.5, 8.0)
    expected = latsub.truncation_error_sq(1.0, latsub.kink_coefficients(I.frequencies))
    assert ref.truncation_error == pytest.approx(math.sqrt(expected), rel=1e-12)


def test_reconstructing_and_tight_frame():
    ref = reference.CrossReference(3, 0.5, 6.0)
    lat = latsub.search_generator(latsub.hyperbolic_cross(3, 0.5, 6.0), rng_seed=3)
    assert ref.is_reconstructed_by(lat.size, lat.generator)
    assert not ref.is_reconstructed_by(lat.size, [0] * 3)
    points = lat.points()
    weights = np.full(lat.size, 1.0 / lat.size)
    assert reference.lower_frame_constant(points, weights, ref.frequencies) == pytest.approx(1.0)


def test_draw_size_and_bound():
    assert reference.random_draw_size(61) == 251
    assert reference.plain_lower_bound(2.0) == pytest.approx(1 / (178 * 9))


def _round(tmp_path):
    """A small exp1 run of latsub in ``tmp_path``: 2 radii x 2 strategies x 2 reps."""
    out = tmp_path / "out"
    argv = ["exp1", "--d", "5", "--radii", "4,8", "--strategies", "full,random_sub", "--reps", "2",
            "--seed", "5", "--out", str(out), "--format", "json"]
    assert latsub_main(argv) == 0
    workload = SimpleNamespace(radii=(4.0, 8.0), b=2.0, operations=8)
    references = {r: reference.CrossReference(5, 0.5, r) for r in workload.radii}
    return out, workload, references


def test_check_round_passes_a_clean_report(tmp_path):
    out, workload, references = _round(tmp_path)
    outcome = checks.check_round(workload, out, references)
    assert outcome.failed == 0 and not outcome.wrong and outcome.failures == []


def test_check_round_flags_a_wrong_truncation(tmp_path):
    out, workload, references = _round(tmp_path)
    report = json.loads((out / "report.json").read_text())
    row = report["rows"][0]
    row["truncation_error"] *= 1 + 1e-6
    row["total_error"] = math.hypot(row["truncation_error"], row["aliasing_error"])
    (out / "report.json").write_text(json.dumps(report))
    outcome = checks.check_round(workload, out, references)
    assert outcome.failed == 1 and outcome.wrong


def test_check_round_counts_missing_rows(tmp_path):
    out, workload, references = _round(tmp_path)
    report = json.loads((out / "report.json").read_text())
    del report["rows"][5:]
    (out / "report.json").write_text(json.dumps(report))
    assert checks.check_round(workload, out, references).failed == 3
    (out / "report.json").unlink()
    assert checks.check_round(workload, out, references).failed == 8


def _traced_exp2(tmp_path):
    """A traced exp2 run at d=5, R=4: 3 strategies x 2 reps."""
    out = tmp_path / "out"
    argv = ["exp2", "--d", "5", "--radii", "4", "--reps", "2", "--seed", "2",
            "--strategies", "full,random_sub,bss_sub", "--out", str(out)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.wrap("cli.main", latsub_main)(argv) == 0
    finally:
        tracer.uninstall()
    workload = SimpleNamespace(radii=(4.0,), b=2.0, operations=6)
    return out, workload, {4.0: reference.CrossReference(5, 0.5, 4.0)}, tracer


def test_traced_round_checks_and_layers(tmp_path):
    out, workload, references, tracer = _traced_exp2(tmp_path)
    assert latsub.cli.run_experiment_2 is latsub.experiments.run_experiment_2  # uninstalled
    outcome = checks.check_round(workload, out, references, tracer)
    assert outcome.failed == 0 and not outcome.wrong
    layers = tracing.layer_metrics(tracer, random_sub_rows=2, report_bytes=1)
    assert layers["solver.solves"] == 4 and layers["solver.cg_iterations"] > 0
    assert layers["subsampling.bss_steps"] > 0 and layers["subsampling.accepted_per_draw"] == 1.0
    assert layers["mz.mz_constants_calls"] == 4  # rank check and certificate per selection
    assert layers["fourier.dense_build_s"] == 0.0
    assert 0 < layers["experiments.self_s"] < layers["cli.main_s"]


def test_traced_round_flags_wrong_coefficients(tmp_path):
    out, workload, references, tracer = _traced_exp2(tmp_path)
    freqs, coeffs, iterations = tracer.captured["solver.least_squares"][1]
    tracer.captured["solver.least_squares"][1] = (freqs, coeffs * 1.01, iterations)
    outcome = checks.check_round(workload, out, references, tracer)
    assert outcome.failed == 1 and outcome.wrong
