"""The benchmark's tracer: every name it wraps still exists where it is looked
up, and a traced run yields the captures its per-round checks pair with rows."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import latsub.cli
from latsub.experiments import ExperimentConfig
from latsub.testfunctions import aliasing_error_sq, kink_coefficients

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclass looks the module up
    spec.loader.exec_module(tracing)  # standard library only
    return tracing


@pytest.mark.parametrize("site", load_tracing().SITES, ids=lambda site: ".".join(
    part for part in site[:3] if part))
def test_site_resolves(site):
    module, cls, attr = site[:3]
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    # Tracer.install reads the attribute exactly this way
    assert callable(vars(owner)[attr])


def test_traced_exp2_captures_pair_with_rows(tmp_path):
    # what the benchmark's traced checks (perfbench/checks.py) rely on: one
    # full-lattice adjoint per radius called by the experiment body, and one
    # solve and one sparsification per produced row, in row order
    cfg = ExperimentConfig(dimension=2, gamma=0.5, radii=(8.0,), repetitions=2,
                           seed=3, output_dir=str(tmp_path))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        rows = latsub.cli.run_experiment_2(cfg).rows  # the wrapped name
    finally:
        tracer.uninstall()
    produced = [r for r in rows if not r.skipped]
    assert [r.strategy for r in produced].count("bss_sub") == 2

    def alias(freqs, coeffs):
        return math.sqrt(aliasing_error_sq(kink_coefficients(freqs), coeffs))

    spans = tracer.spans
    full_adjoints = [s for s in spans if s.name == "fourier.lattice_adjoint"
                     and s.parent >= 0 and spans[s.parent].name == "experiments.run"]
    payloads = [p for _, p in tracer.captured["fourier.lattice_adjoint"] if p]
    assert len(full_adjoints) == len(payloads) == len(cfg.radii)
    for r in produced:
        if r.strategy == "full":
            assert alias(*payloads[0]) == pytest.approx(r.aliasing_error, rel=1e-12)

    solved = [r for r in produced if r.strategy != "full"]
    solves = tracer.captured["solver.least_squares"]
    assert len(solves) == len(solved)
    for r, (freqs, coeffs, _) in zip(solved, solves):
        assert alias(freqs, coeffs) == pytest.approx(r.aliasing_error, rel=1e-12)

    sparsified = [r for r in produced if r.strategy == "bss_sub"]
    selections = tracer.captured["subsampling.plain_bss_subsample"]
    assert [(sel.seed, len(sel)) for sel, _ in selections] == [
        (r.seed, r.num_points) for r in sparsified]
