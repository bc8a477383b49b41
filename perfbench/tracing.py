"""Per-layer spans around latsub's public functions, installed from outside.

``latsub.experiments`` and ``latsub.cli`` bind their callees by name at
import time, so each wrapper is installed where the name is looked up (for
example ``latsub.experiments.least_squares`` and
``latsub.subsampling.bss_select_plain``); methods are wrapped on their class.
A span records a name, a start, an end and the index of its parent span.
Spans are kept in memory, summarized per round, and written out at the end.
Nothing is installed in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def _solve(parent, args, result):
    op, (coeffs, diagnostics) = args[0], result
    return op.index_set.frequencies, coeffs, diagnostics.iterations


def _lattice_adjoint(parent, args, result):
    """The FFT length, plus the coefficients when the call is a full-lattice solve."""
    op = args[0]
    M = op.lattice.size
    # the full strategy is one adjoint called by the experiment body, divided by M
    if parent == "experiments.run":
        return M, (op.index_set.frequencies, result / M)
    return M, None


# (module, class or None, attribute, span name, capture hook)
SITES = (
    ("latsub.cli", None, "run_experiment_1", "experiments.run", None),
    ("latsub.cli", None, "run_experiment_2", "experiments.run", None),
    ("latsub.cli", None, "emit_report", "experiments.emit_report",
     lambda parent, args, result: list(result)),
    ("latsub.experiments", None, "hyperbolic_cross", "index_sets.hyperbolic_cross", None),
    ("latsub.experiments", None, "search_generator", "lattice.search_generator",
     lambda parent, args, result: (result.size, len(args[0]))),
    ("latsub.fourier", None, "residues", "lattice.residues", None),
    ("latsub.lattice", None, "residues", "lattice.residues", None),
    ("latsub.experiments", None, "density_weights", "subsampling.density_weights", None),
    ("latsub.experiments", None, "random_subsample", "subsampling.random_subsample", None),
    ("latsub.experiments", None, "plain_bss_subsample", "subsampling.plain_bss_subsample",
     lambda parent, args, result: (result, args[1].frequencies)),
    ("latsub.subsampling", None, "bss_select_plain", "subsampling.bss_select_plain",
     lambda parent, args, result: (args[0].shape, len(result))),
    ("latsub.experiments", None, "mz_constants", "mz.mz_constants", None),
    ("latsub.subsampling", None, "mz_constants", "mz.mz_constants", None),
    ("latsub.mz", None, "gram_matrix", "mz.gram_matrix", None),
    ("latsub.experiments", None, "least_squares", "solver.least_squares", _solve),
    ("latsub.experiments", None, "kink_coefficients", "testfunctions.coefficients", None),
    ("latsub.testfunctions", "KinkFunction", "__call__", "testfunctions.kink", None),
    ("latsub.fourier", "LatticeOperator", "forward", "fourier.lattice_forward",
     lambda parent, args, result: args[0].lattice.size),
    ("latsub.fourier", "LatticeOperator", "adjoint", "fourier.lattice_adjoint",
     _lattice_adjoint),
    ("latsub.fourier", "DenseOperator", "__init__", "fourier.dense_build",
     lambda parent, args, result: (args[0].points.shape[0], len(args[0].index_set))),
    ("latsub.fourier", "DenseOperator", "forward", "fourier.dense_apply", None),
    ("latsub.fourier", "DenseOperator", "adjoint", "fourier.dense_apply", None),
)


class Tracer:
    """Span recorder for one traced round; ``install``/``uninstall`` the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if hook is not None:
                value = hook(self.spans[parent].name if parent >= 0 else "", args, result)
                if value is not None:
                    self.captured[name].append(value)
            return result

        return traced

    def install(self) -> None:
        for module, cls, attr, name, hook in SITES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, and call count."""
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            self_time[span.name] += duration
            calls[span.name] += 1
            if span.parent >= 0:
                self_time[self.spans[span.parent].name] -= duration
        return total, self_time, calls


def layer_metrics(tracer: Tracer, random_sub_rows: int, report_bytes: int) -> dict:
    """The per-layer metrics of one traced round; units are in BENCHMARK.json."""
    total, self_time, calls = tracer.totals()
    cap = tracer.captured
    searches = cap["lattice.search_generator"]
    bss_draws = calls["subsampling.random_subsample"] - random_sub_rows
    return {
        "fourier.dense_build_s": total["fourier.dense_build"],
        "fourier.dense_apply_s": total["fourier.dense_apply"],
        "fourier.dense_bytes": max((16 * n * m for n, m in cap["fourier.dense_build"]), default=0),
        "fourier.lattice_forward_s": total["fourier.lattice_forward"],
        "fourier.lattice_adjoint_s": total["fourier.lattice_adjoint"],
        "fourier.lattice_calls": calls["fourier.lattice_forward"] + calls["fourier.lattice_adjoint"],
        "fourier.fft_points": sum(cap["fourier.lattice_forward"])
        + sum(M for M, _ in cap["fourier.lattice_adjoint"]),
        "subsampling.bss_select_plain_s": total["subsampling.bss_select_plain"],
        "subsampling.plain_bss_subsample_self_s": self_time["subsampling.plain_bss_subsample"],
        "subsampling.bss_steps": sum(steps for _, steps in cap["subsampling.bss_select_plain"]),
        "subsampling.bss_rows_bytes": max(
            (16 * n * m for (n, m), _ in cap["subsampling.bss_select_plain"]), default=0),
        "subsampling.accepted_per_draw": (
            len(cap["subsampling.plain_bss_subsample"]) / bss_draws if bss_draws > 0 else 0.0),
        "subsampling.density_weights_s": total["subsampling.density_weights"],
        "subsampling.random_subsample_s": total["subsampling.random_subsample"],
        "subsampling.draws": calls["subsampling.random_subsample"],
        "mz.mz_constants_s": total["mz.mz_constants"],
        "mz.mz_constants_calls": calls["mz.mz_constants"],
        "mz.gram_matrix_s": total["mz.gram_matrix"],
        "solver.least_squares_self_s": self_time["solver.least_squares"],
        "solver.solves": calls["solver.least_squares"],
        "solver.cg_iterations": sum(it for _, _, it in cap["solver.least_squares"]),
        "lattice.search_generator_s": total["lattice.search_generator"],
        "lattice.residues_s": total["lattice.residues"],
        "lattice.M_over_I": (
            sum(M for M, _ in searches) / sum(m for _, m in searches) if searches else 0.0),
        "index_sets.hyperbolic_cross_s": total["index_sets.hyperbolic_cross"],
        "testfunctions.kink_s": total["testfunctions.kink"],
        "testfunctions.coefficients_s": total["testfunctions.coefficients"],
        "experiments.self_s": self_time["experiments.run"],
        "experiments.emit_report_s": total["experiments.emit_report"],
        "experiments.report_bytes": report_bytes,
        "cli.main_s": total["cli.main"],
    }
