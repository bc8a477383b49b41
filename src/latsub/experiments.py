"""Experiment harness: point-set strategies, error/timing reports, CSV panels.

Given a schedule of hyperbolic-cross radii, the harness builds a
reconstructing rank-1 lattice per cross, samples the kink test function, and
reconstructs it with up to four strategies:

  full               all M lattice points; tight frame, so the coefficients
                     are the plain adjoint divided by M (no inverse needed)
  random_sub         n = ceil(|I| ln|I|) density draws from the lattice,
                     iterative solve with a hard iteration cap
  bss_sub            the random draw sparsified further to <= ceil(b |I|)
                     points (plain variant); sparsifier time logged apart
  continuous_random  n i.i.d. uniform points on the torus with a dense
                     operator, as the unstructured baseline; the operator
                     build counts as subsample time, not solve time

Per (radius, strategy, repetition) the report records the truncation /
aliasing / total L2 errors, point counts, wall times, and seeds.  Given the
same config and seed, two runs produce byte-identical CSVs; all timing lives
in a separate panel so the other panels can be compared verbatim.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .fourier import DenseOperator, LatticeOperator, _circulant_length
from .index_sets import IndexSet, hyperbolic_cross
from .lattice import Rank1Lattice, SamplePlan, is_reconstructing, search_generator
from .mz import SpectralBounds, mz_constants
from .solver import SolverConfig, least_squares
from .subsampling import (
    SpectralCertificateError,
    density_weights,
    plain_bss_subsample,
    random_subsample,
)
from .testfunctions import (
    KinkFunction,
    aliasing_error_sq,
    kink_coefficients,
    truncation_error_sq,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentReport",
    "run_experiment_1",
    "run_experiment_2",
    "emit_report",
    "check_report",
    "error_at_matched_points",
]

KNOWN_STRATEGIES = ("full", "random_sub", "bss_sub", "continuous_random")

_STRATEGY_STREAM = {name: i for i, name in enumerate(KNOWN_STRATEGIES)}


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int = 5
    # Accepted from config files and recorded in reports, but it changes no
    # output, so it has no CLI flag: on the torus the stage-1 density is
    # w / sum(w) whatever the smoothness order.
    smoothness: float = 1.5
    gamma: float = 0.5
    radii: tuple[float, ...] = (4.0, 8.0, 16.0)
    strategies: tuple[str, ...] = ("full", "random_sub", "continuous_random")
    b: float = 2.0
    seed: int = 0
    repetitions: int = 10
    memory_cap_bytes: int = 4 << 30
    output_dir: str = "latsub_out"
    solver_iterations: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if list(self.radii) != sorted(self.radii):
            raise ValueError("radii schedule must be sorted ascending")
        unknown = set(self.strategies) - set(KNOWN_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")


@dataclass
class ExperimentRow:
    radius: float
    strategy: str
    repetition: int
    num_frequencies: int
    num_points: int
    truncation_error: float
    aliasing_error: float
    total_error: float
    setup_time_s: float
    subsample_time_s: float
    solve_time_s: float
    bss_time_s: float
    seed: int
    skipped: bool = False
    skip_reason: str = ""


@dataclass
class ExperimentReport:
    kind: str
    config: ExperimentConfig
    rows: list[ExperimentRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentReport":
        cfg = ExperimentConfig(**data["config"])
        rows = [ExperimentRow(**r) for r in data["rows"]]
        return cls(kind=data["kind"], config=cfg, rows=rows)


def _derived_seed(cfg_seed: int, r_index: int, strategy: str, rep: int) -> int:
    ss = np.random.SeedSequence(
        [cfg_seed, r_index, _STRATEGY_STREAM[strategy], rep]
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _lattice_for(
    cfg: ExperimentConfig, index_set: IndexSet, radius: float, cache: dict
) -> Rank1Lattice:
    key = (cfg.dimension, cfg.gamma, radius, cfg.seed)
    if key in cache:
        return cache[key]
    cache_dir = os.path.join(cfg.output_dir, "lattice_cache")
    os.makedirs(cache_dir, exist_ok=True)
    fname = os.path.join(
        cache_dir,
        f"lat_d{cfg.dimension}_g{cfg.gamma!r}_R{radius!r}_s{cfg.seed}.txt",
    )
    lat = None
    if os.path.exists(fname):
        cached = Rank1Lattice.load(fname)
        if cached.dimension == cfg.dimension and is_reconstructing(cached, index_set):
            lat = cached
    if lat is None:
        lat = search_generator(index_set, rng_seed=cfg.seed)
        lat.save(fname)
    cache[key] = lat
    return lat


def _draw_count(m: int) -> int:
    """Stage-1 (and continuous-random) draw count ``ceil(m ln m)``, at least 1."""
    return max(1, math.ceil(m * math.log(m)))


def _lattice_round_bytes(M: int, d: int, n_draw: int) -> int:
    """Bytes of a ``full`` plus ``random_sub`` round on a lattice of size M.

    An upper bound that counts every large array as alive at once.  Per
    lattice point: the points (8d) and the kink's two M x d temporaries
    (16d); the weights, the density and the kink's real values (8 each);
    the complex values (16); and the stage-1 alias table, whose arrays and
    Python lists take about 112.  Per draw: the indices, the reweights and
    the masked values (32).  On top, the circulant normal operator's two
    complex buffers of length ``_circulant_length(M)``.
    """
    return M * (24 * d + 152) + 32 * n_draw + 32 * _circulant_length(M)


def _error_row(trunc_sq: float, alias_sq: float) -> tuple[float, float, float]:
    return (
        math.sqrt(trunc_sq),
        math.sqrt(alias_sq),
        math.sqrt(trunc_sq + alias_sq),
    )


def _run(cfg: ExperimentConfig, kind: str) -> ExperimentReport:
    kink = KinkFunction(cfg.dimension)
    solver_cfg = SolverConfig(max_iterations=cfg.solver_iterations)
    report = ExperimentReport(kind=kind, config=cfg)
    lattice_cache: dict = {}

    for r_index, radius in enumerate(cfg.radii):
        t0 = time.perf_counter()
        index_set = hyperbolic_cross(cfg.dimension, cfg.gamma, radius)
        m = len(index_set)
        if "bss_sub" in cfg.strategies and cfg.b <= 1.0 + 1.0 / m:
            raise ValueError(
                f"b = {cfg.b} violates b > 1 + 1/|I| = {1 + 1 / m:.6g} at R={radius}"
            )
        lat = _lattice_for(cfg, index_set, radius, lattice_cache)
        M = lat.size
        n_draw = _draw_count(m)

        if _lattice_round_bytes(M, cfg.dimension, n_draw) > cfg.memory_cap_bytes:
            for strategy in cfg.strategies:
                for rep in range(cfg.repetitions):
                    report.rows.append(
                        _skipped_row(radius, strategy, rep, m, cfg,
                                     f"lattice of size {M} exceeds the memory cap"))
            continue

        plan = SamplePlan(
            points=lat.points(),
            weights=np.full(M, 1.0 / M),
            bounds=SpectralBounds(1.0, 1.0),
            lattice=lat,
        )
        full_values = kink(plan.points).astype(np.complex128)
        ref = kink_coefficients(index_set.frequencies)
        trunc_sq = truncation_error_sq(kink.norm_sq, ref)
        full_op = LatticeOperator(lat, index_set)
        rho = density_weights(plan)
        setup_time = time.perf_counter() - t0

        full_row = None
        for strategy in cfg.strategies:
            for rep in range(cfg.repetitions):
                seed = _derived_seed(cfg.seed, r_index, strategy, rep)
                if strategy == "full":
                    if full_row is None:
                        t1 = time.perf_counter()
                        coeffs = full_op.adjoint(full_values) / M
                        solve_time = time.perf_counter() - t1
                        tr, al, tot = _error_row(
                            trunc_sq, aliasing_error_sq(ref, coeffs)
                        )
                        full_row = (M, tr, al, tot, solve_time)
                    pts, tr, al, tot, solve_time = full_row
                    report.rows.append(ExperimentRow(
                        radius, strategy, rep, m, pts, tr, al, tot,
                        setup_time, 0.0, solve_time, 0.0, cfg.seed))
                elif strategy == "random_sub":
                    t1 = time.perf_counter()
                    sel = random_subsample(plan, rho, n_draw, seed)
                    sub_time = time.perf_counter() - t1
                    op = full_op.masked(sel.indices)
                    t1 = time.perf_counter()
                    coeffs, _ = least_squares(
                        op, sel.reweights, full_values[sel.indices], solver_cfg
                    )
                    solve_time = time.perf_counter() - t1
                    tr, al, tot = _error_row(
                        trunc_sq, aliasing_error_sq(ref, coeffs)
                    )
                    report.rows.append(ExperimentRow(
                        radius, strategy, rep, m, len(sel), tr, al, tot,
                        setup_time, sub_time, solve_time, 0.0, seed))
                elif strategy == "bss_sub":
                    # The sparsification guarantee is conditional on a usable
                    # stage-1 draw; condition on that event by redrawing
                    # deterministically when the draw is rank-deficient or the
                    # sparsifier cannot certify its bound.  A ValueError (a
                    # dense size cap, for one) skips the row with its message.
                    # Every attempt counts: draws plus rank checks towards the
                    # subsample time, sparsifier runs towards the bss time.
                    sel2 = None
                    skip_reason = None
                    sub_time = bss_time = 0.0
                    for attempt in range(8):
                        try:
                            t1 = time.perf_counter()
                            sel = random_subsample(plan, rho, n_draw, seed + attempt)
                            usable = mz_constants(sel.as_plan(), index_set).A > 1e-8
                            t2 = time.perf_counter()
                            sub_time += t2 - t1
                            if not usable:
                                continue
                            try:
                                sel2 = plain_bss_subsample(sel, index_set, cfg.b)
                            finally:
                                bss_time += time.perf_counter() - t2
                            seed = seed + attempt
                        except SpectralCertificateError:
                            continue
                        except ValueError as exc:
                            skip_reason = str(exc)
                        break
                    if sel2 is None:
                        report.rows.append(_skipped_row(
                            radius, strategy, rep, m, cfg,
                            skip_reason
                            or "no certifiable stage-1 draw in 8 attempts"))
                        continue
                    op = full_op.masked(sel2.indices)
                    t1 = time.perf_counter()
                    coeffs, _ = least_squares(
                        op, sel2.reweights, full_values[sel2.indices], solver_cfg
                    )
                    solve_time = time.perf_counter() - t1
                    tr, al, tot = _error_row(
                        trunc_sq, aliasing_error_sq(ref, coeffs)
                    )
                    report.rows.append(ExperimentRow(
                        radius, strategy, rep, m, len(sel2), tr, al, tot,
                        setup_time, sub_time, solve_time, bss_time, seed))
                elif strategy == "continuous_random":
                    # one complex n x |I| matrix (L^T), the two complex d x n
                    # tone tables it is built from, the points and the values
                    dense_bytes = 16 * n_draw * m + n_draw * (40 * cfg.dimension + 16)
                    if dense_bytes > cfg.memory_cap_bytes:
                        report.rows.append(_skipped_row(
                            radius, strategy, rep, m, cfg,
                            f"dense matrix of {n_draw}x{m} exceeds the memory cap"))
                        continue
                    rng = np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence([seed, 17])))
                    # the subsample time covers the draw and the dense
                    # operator; the solve time covers least_squares alone
                    t1 = time.perf_counter()
                    pts = rng.random((n_draw, cfg.dimension))
                    op = DenseOperator(pts, index_set)
                    sub_time = time.perf_counter() - t1
                    values = kink(pts).astype(np.complex128)
                    t1 = time.perf_counter()
                    coeffs, _ = least_squares(
                        op, np.full(n_draw, 1.0 / n_draw), values, solver_cfg
                    )
                    solve_time = time.perf_counter() - t1
                    tr, al, tot = _error_row(
                        trunc_sq, aliasing_error_sq(ref, coeffs)
                    )
                    report.rows.append(ExperimentRow(
                        radius, strategy, rep, m, n_draw, tr, al, tot,
                        setup_time, sub_time, solve_time, 0.0, seed))
    return report


def _skipped_row(radius, strategy, rep, m, cfg, reason) -> ExperimentRow:
    return ExperimentRow(
        radius, strategy, rep, m, 0, float("nan"), float("nan"), float("nan"),
        0.0, 0.0, 0.0, 0.0, cfg.seed, skipped=True, skip_reason=reason)


def run_experiment_1(cfg: ExperimentConfig) -> ExperimentReport:
    """Full lattice vs random subsample vs continuous random points."""
    return _run(cfg, kind="exp1")


def run_experiment_2(cfg: ExperimentConfig) -> ExperimentReport:
    """Experiment 1 plus plain sparsification of the random subsample."""
    if "bss_sub" not in cfg.strategies:
        cfg = replace(cfg, strategies=cfg.strategies + ("bss_sub",))
    return _run(cfg, kind="exp2")


# ---------------------------------------------------------------------------
# Report emission and checks
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _grouped(report: ExperimentReport):
    """Rows grouped by (strategy, radius) in config order, skipped rows dropped."""
    for strategy in report.config.strategies:
        for radius in report.config.radii:
            rows = [
                r for r in report.rows
                if r.strategy == strategy and r.radius == radius and not r.skipped
            ]
            if rows:
                yield strategy, radius, rows


def _stats(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.min()), float(arr.mean()), float(arr.max())


def emit_report(report: ExperimentReport, fmt: str, output_dir: str | None = None) -> list[str]:
    """Write the report as figure-panel CSVs and/or a JSON document.

    ``fmt`` is ``"csv"``, ``"json"``, or ``"both"``.  Returns written paths.
    Timing data is confined to ``time_vs_frequencies.csv`` (and the JSON), so
    every other CSV is byte-reproducible for a fixed config and seed.
    """
    out = output_dir or report.config.output_dir
    os.makedirs(out, exist_ok=True)
    written = []

    if fmt in ("csv", "both"):
        panels = {
            "error_vs_frequencies.csv": (
                ["strategy", "radius", "num_frequencies",
                 "truncation_min", "truncation_avg", "truncation_max",
                 "aliasing_min", "aliasing_avg", "aliasing_max",
                 "total_min", "total_avg", "total_max"],
                lambda s, R, rows: [
                    s, _fmt(R), str(rows[0].num_frequencies),
                    *map(_fmt, _stats([r.truncation_error for r in rows])),
                    *map(_fmt, _stats([r.aliasing_error for r in rows])),
                    *map(_fmt, _stats([r.total_error for r in rows])),
                ],
            ),
            "points_vs_frequencies.csv": (
                ["strategy", "radius", "num_frequencies",
                 "points_min", "points_avg", "points_max"],
                lambda s, R, rows: [
                    s, _fmt(R), str(rows[0].num_frequencies),
                    *map(_fmt, _stats([r.num_points for r in rows])),
                ],
            ),
            "error_vs_points.csv": (
                ["strategy", "radius", "points_avg",
                 "total_min", "total_avg", "total_max"],
                lambda s, R, rows: [
                    s, _fmt(R),
                    _fmt(_stats([r.num_points for r in rows])[1]),
                    *map(_fmt, _stats([r.total_error for r in rows])),
                ],
            ),
            "time_vs_frequencies.csv": (
                ["strategy", "radius", "num_frequencies",
                 "setup_avg", "subsample_avg",
                 "solve_min", "solve_avg", "solve_max", "bss_avg"],
                lambda s, R, rows: [
                    s, _fmt(R), str(rows[0].num_frequencies),
                    _fmt(_stats([r.setup_time_s for r in rows])[1]),
                    _fmt(_stats([r.subsample_time_s for r in rows])[1]),
                    *map(_fmt, _stats([r.solve_time_s for r in rows])),
                    _fmt(_stats([r.bss_time_s for r in rows])[1]),
                ],
            ),
        }
        for name, (header, render) in panels.items():
            path = os.path.join(out, name)
            lines = [",".join(header)]
            for strategy, radius, rows in _grouped(report):
                lines.append(",".join(render(strategy, radius, rows)))
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            written.append(path)

    if fmt in ("json", "both"):
        path = os.path.join(out, "report.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
        written.append(path)
    return written


def check_report(report: ExperimentReport) -> list[str]:
    """Contract violations in a report (empty list means all checks pass).

    Checks, per non-skipped row: the orthogonal error decomposition, the
    aliasing-below-truncation finding, and the per-strategy point-count
    contracts (n = ceil(|I| ln|I|) for the random stage, <= ceil(b |I|)
    after sparsification).
    """
    cfg = report.config
    problems = []
    for r in report.rows:
        tag = f"[{r.strategy} R={r.radius} rep={r.repetition}]"
        if r.skipped:
            if not r.skip_reason:
                problems.append(f"{tag} skipped without a reason")
            continue
        decomposition = r.truncation_error**2 + r.aliasing_error**2
        if abs(decomposition - r.total_error**2) > 1e-10 * max(decomposition, 1e-300):
            problems.append(f"{tag} error decomposition violated")
        if r.aliasing_error > r.truncation_error:
            problems.append(
                f"{tag} aliasing {r.aliasing_error:.3e} exceeds "
                f"truncation {r.truncation_error:.3e}"
            )
        m = r.num_frequencies
        expected_n = _draw_count(m)
        if r.strategy == "random_sub" and r.num_points != expected_n:
            problems.append(f"{tag} point count {r.num_points} != {expected_n}")
        if r.strategy == "bss_sub" and r.num_points > math.ceil(cfg.b * m):
            problems.append(
                f"{tag} point count {r.num_points} exceeds ceil(b*|I|)"
            )
        if r.strategy == "continuous_random" and r.num_points != expected_n:
            problems.append(f"{tag} point count {r.num_points} != {expected_n}")
    return problems


def error_at_matched_points(
    report: ExperimentReport,
    strategy: str = "random_sub",
    baseline: str = "full",
) -> list[float]:
    """Per-radius ratios: strategy error over baseline error at equal budgets.

    The baseline's median total error is interpolated (log-log, clamped at
    the ends) at the strategy's point count, radius by radius; a ratio at or
    below 1 means the strategy tracks the better error envelope at matched
    sample budgets.
    """
    base = [
        (float(np.median([r.num_points for r in rows])),
         float(np.median([r.total_error for r in rows])))
        for s, R, rows in _grouped(report) if s == baseline
    ]
    if not base:
        raise ValueError(f"no rows for baseline strategy {baseline!r}")
    base.sort()
    bx = np.log(np.array([p for p, _ in base]))
    by = np.log(np.array([e for _, e in base]))
    ratios = []
    for s, R, rows in _grouped(report):
        if s != strategy:
            continue
        pts = float(np.median([r.num_points for r in rows]))
        err = float(np.median([r.total_error for r in rows]))
        ref = math.exp(float(np.interp(math.log(pts), bx, by)))
        ratios.append(err / ref)
    return ratios
