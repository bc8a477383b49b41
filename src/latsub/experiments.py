"""Experiment harness: point-set strategies, error/timing reports, CSV panels.

Given a schedule of hyperbolic-cross radii, the harness builds a
reconstructing rank-1 lattice per cross, samples the kink test function, and
reconstructs it with up to four strategies, one function each in the
``_STRATEGIES`` table, where a strategy's position is its seed stream:

  full               all M lattice points; tight frame, so the coefficients
                     are the plain adjoint divided by M (no inverse needed)
  random_sub         n = ceil(|I| ln|I|) density draws from the lattice,
                     iterative solve with a hard iteration cap
  bss_sub            the random draw sparsified further to <= ceil(b |I|)
                     points (plain variant); sparsifier time logged apart
  continuous_random  n i.i.d. uniform points on the torus with a dense
                     operator, as the unstructured baseline; the operator
                     build counts as subsample time, not solve time

Each takes the state shared at one radius and a row seed, and returns the
coefficients, point count, seed used and seconds per phase, or raises
``_Skip`` to skip its row.  ``_run`` scores every outcome and builds its row.

Per (radius, strategy, repetition) the report records the truncation /
aliasing / total L2 errors, point counts, wall times, and seeds.  Given the
same config and seed, two runs produce byte-identical CSVs; all timing lives
in a separate panel so the other panels can be compared verbatim.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .fourier import DenseOperator, LatticeOperator
from .index_sets import IndexSet, hyperbolic_cross
from .lattice import (
    _DEFAULT_SCHEDULE_NAME,
    Rank1Lattice,
    SamplePlan,
    is_reconstructing,
    search_generator,
)
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


def _check_field(name: str, value, annotation: str) -> None:
    """Reject a config value whose type does not match its field annotation.

    An int is a real too, and a bool is neither; a ``tuple[X, ...]`` field
    takes a list or tuple of X values.
    """
    item = annotation.removeprefix("tuple[").removesuffix(", ...]")
    kind = {"int": numbers.Integral, "float": numbers.Real, "str": str}[item]

    def accepted(v) -> bool:
        return not isinstance(v, bool) and isinstance(v, kind)

    if item == annotation:
        ok, expected = accepted(value), item
    else:
        ok = isinstance(value, (list, tuple)) and all(map(accepted, value))
        expected = f"a list of {item}"
    if not ok:
        raise ValueError(f"config field {name} expects {expected}, got {value!r}")


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
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name), f.type)
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for name in ("repetitions", "solver_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        radii = self.radii
        if not radii:
            raise ValueError("radii schedule must not be empty")
        if any(a >= b for a, b in zip(radii, radii[1:])):
            raise ValueError(f"radii schedule must be sorted strictly ascending, got {radii}")
        unknown = set(self.strategies) - set(KNOWN_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if len(set(self.strategies)) < len(self.strategies):
            raise ValueError(f"strategies must be distinct, got {self.strategies}")


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
    stream = KNOWN_STRATEGIES.index(strategy)
    ss = np.random.SeedSequence([cfg_seed, r_index, stream, rep])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _lattice_for(
    cfg: ExperimentConfig, index_set: IndexSet, radius: float
) -> Rank1Lattice:
    cache_dir = os.path.join(cfg.output_dir, "lattice_cache")
    os.makedirs(cache_dir, exist_ok=True)
    fname = os.path.join(
        cache_dir,
        f"lat_d{cfg.dimension}_g{cfg.gamma!r}_R{radius!r}_s{cfg.seed}"
        f"_{_DEFAULT_SCHEDULE_NAME}.txt",
    )
    try:  # an absent, empty or broken file is a miss, and is overwritten
        cached = Rank1Lattice.load(fname)
    except (FileNotFoundError, ValueError):
        pass
    else:
        if cached.dimension == cfg.dimension and is_reconstructing(cached, index_set):
            return cached
    lat = search_generator(index_set, rng_seed=cfg.seed)
    part = f"{fname}.{os.getpid()}.part"  # not *.txt; a killed run leaves no partial .txt
    lat.save(part)
    os.replace(part, fname)
    return lat


def _draw_count(m: int) -> int:
    """Stage-1 (and continuous-random) draw count ``ceil(m ln m)``, at least 1."""
    return max(1, math.ceil(m * math.log(m)))


#: A row runs only if these bytes (Python objects and numpy's small arrays)
#: plus its round's and its own fit the memory cap, checked in ``_run``.  The
#: budget counts arrays, not imported modules: the first FFT of a process
#: imports ``numpy.fft`` (about 125 kB), which no estimate counts.
_FIXED_BYTES = 32 << 10


def _lattice_round_bytes(M: int, d: int, m: int) -> int:
    """Bytes of a ``full`` plus ``random_sub`` round on a lattice of size M.

    What the round holds throughout, plus the largest of its phases, which
    never hold memory at the same time.  Held: per lattice point the weights,
    the density and the kink's real values (24); per frequency of the |I| = m
    the frequencies (8d), the residues and the reference and full coefficients
    (32).  Phases: the kink, which holds the lattice points computed for it and
    its two temporaries (8d + 16 per point); or the full adjoint's complex copy
    of the values and its spectrum (32 per point) and its gather (16 per
    frequency); or one solve, which holds the draw's indices, reweights, masked
    values and their weighted product (32 per draw), the right-hand side's
    point sums and half spectrum (16 per point) and then, after them, the
    Hermitian apply's total weight per point, complex half spectrum and real
    work vector (24 per point), and per frequency the right-hand side and its
    gather temporary, the slots of the apply's scatter and the complex result
    (40), the five real CG vectors (40), and the apply's slot index, its two
    scale vectors and their build temporaries (48).
    """
    kink = (8 * d + 16) * M
    adjoint = 32 * M + 16 * m
    solve = 24 * M + 32 * _draw_count(m) + 128 * m
    return 24 * M + m * (8 * d + 32) + max(kink, adjoint, solve)


def _dense_row_bytes(M: int, d: int, m: int) -> int:
    """Bytes a ``continuous_random`` row of n draws holds on top of its round.

    The real n x |I| matrix (8nm).  Per point: the points (8d); the build's two
    real d x n tone tables, or later the kink's two n x d temporaries (16d);
    the values and the weights (16); the build's row temporary, or later the
    two n-vectors of a normal apply (16).  Per frequency: the build's key
    tuples and lookup table, the CG vectors and the coefficients (8d + 160).
    """
    n = _draw_count(m)
    return 8 * n * m + n * (24 * d + 32) + m * (8 * d + 160)


def _bss_row_bytes(M: int, d: int, m: int) -> int:
    """Bytes a ``bss_sub`` row of n draws holds on top of its round.

    Two real |I| x |I| matrices at a time (16 m^2): the rank check's and the
    certificate's Gram and its eigensolver copy, or the greedy's resolvent and
    the identity it is built from.  Per frequency the greedy's two queues of
    ``_FLUSH`` vectors (512).  Per lattice point the Gram's weight spectrum and
    its doubled and scaled copies, or the greedy's tone table and transform
    buffers (96).  Per draw the indices and reweights, their plan's copies, the
    grouping of repeated rows and the greedy's per-row scores (128).
    """
    return 16 * m * m + 512 * m + 96 * M + 128 * _draw_count(m)


class _Skip(Exception):
    """Raised by a strategy to skip its row; the message is the reason."""


class _Clock:
    """Wall seconds per phase; a phase counts even when its body raises."""

    def __init__(self):
        self.seconds = dict.fromkeys(("setup", "subsample", "solve", "bss"), 0.0)

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


@dataclass
class _Outcome:
    """One row's reconstruction, before it is scored."""

    coeffs: np.ndarray | None  # None for a skipped row
    num_points: int
    seed: int
    seconds: dict[str, float]


class _Round:
    """What every strategy shares at one radius: the setup of a round."""

    def __init__(self, cfg: ExperimentConfig, index_set: IndexSet, lat: Rank1Lattice):
        kink = KinkFunction(cfg.dimension)
        self.cfg, self.index_set = cfg, index_set
        self.n_draw = _draw_count(len(index_set))
        self.plan = SamplePlan(weights=np.full(lat.size, 1.0 / lat.size),
                               bounds=SpectralBounds(1.0, 1.0), lattice=lat)
        self.values = kink(self.plan.points)  # the points are freed after the call
        self.ref = kink_coefficients(index_set.frequencies)
        self.trunc_sq = truncation_error_sq(kink.norm_sq, self.ref)
        self.op = LatticeOperator(lat, index_set)
        self.rho = density_weights(self.plan)
        self.solver_cfg = SolverConfig(max_iterations=cfg.solver_iterations)
        self.full: _Outcome | None = None  # computed once, for every repetition


def _solve(s: _Round, op, weights, values, seed: int, clock: _Clock) -> _Outcome:
    """Weighted least squares on ``op``; the solve phase is the solver alone."""
    with clock.phase("solve"):
        coeffs, _ = least_squares(op, weights, values, s.solver_cfg)
    return _Outcome(coeffs, len(weights), seed, clock.seconds)


def _full(s: _Round, seed: int) -> _Outcome:
    """All M points: one adjoint per radius, shared by every repetition."""
    if s.full is None:
        clock = _Clock()
        with clock.phase("solve"):
            coeffs = s.op.adjoint(s.values) / len(s.plan)
        s.full = _Outcome(coeffs, len(s.plan), s.cfg.seed, clock.seconds)
    return s.full


def _random_sub(s: _Round, seed: int) -> _Outcome:
    clock = _Clock()
    with clock.phase("subsample"):
        sel = random_subsample(s.plan, s.rho, s.n_draw, seed)
    return _solve(s, s.op.masked(sel.indices), sel.reweights,
                  s.values[sel.indices], seed, clock)


def _bss_sub(s: _Round, seed: int) -> _Outcome:
    """The plain sparsifier on a usable stage-1 draw, in up to 8 attempts.

    The guarantee is conditional on a usable draw; condition on that event by
    redrawing deterministically when the draw is rank-deficient or the
    sparsifier cannot certify its bound.  A ValueError (``mz.DENSE_CAP_BYTES``,
    for one) skips the row with its message.  Every attempt counts: draws plus
    rank checks towards the subsample time, sparsifier runs towards bss time.
    """
    clock = _Clock()
    for attempt in range(8):
        try:
            with clock.phase("subsample"):
                sel = random_subsample(s.plan, s.rho, s.n_draw, seed + attempt)
                usable = mz_constants(sel.as_plan(), s.index_set).A > 1e-8
            if not usable:
                continue
            with clock.phase("bss"):
                sel = plain_bss_subsample(sel, s.index_set, s.cfg.b)
        except SpectralCertificateError:
            continue
        except ValueError as exc:
            raise _Skip(str(exc)) from exc
        return _solve(s, s.op.masked(sel.indices), sel.reweights,
                      s.values[sel.indices], seed + attempt, clock)
    raise _Skip("no certifiable stage-1 draw in 8 attempts")


def _continuous_random(s: _Round, seed: int) -> _Outcome:
    n, d = s.n_draw, s.cfg.dimension
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 17])))
    clock = _Clock()
    with clock.phase("subsample"):
        pts = rng.random((n, d))
        op = DenseOperator(pts, s.index_set)
    return _solve(s, op, np.full(n, 1.0 / n), KinkFunction(d)(pts), seed, clock)


#: The strategies in report order, each with its row's own bytes.  A
#: strategy's position is its seed stream, so reordering changes every seed.
_STRATEGIES = {
    "full": (_full, lambda M, d, m: 0),
    "random_sub": (_random_sub, lambda M, d, m: 0),
    "bss_sub": (_bss_sub, _bss_row_bytes),
    "continuous_random": (_continuous_random, _dense_row_bytes),
}

KNOWN_STRATEGIES = tuple(_STRATEGIES)


def _run(cfg: ExperimentConfig, kind: str) -> ExperimentReport:
    report = ExperimentReport(kind=kind, config=cfg)
    cap = cfg.memory_cap_bytes
    for r_index, radius in enumerate(cfg.radii):
        clock = _Clock()
        with clock.phase("setup"):
            index_set = hyperbolic_cross(cfg.dimension, cfg.gamma, radius)
            m = len(index_set)
            if "bss_sub" in cfg.strategies and cfg.b <= 1.0 + 1.0 / m:
                raise ValueError(
                    f"b = {cfg.b} violates b > 1 + 1/|I| = {1 + 1 / m:.6g} at R={radius}"
                )
            lat = _lattice_for(cfg, index_set, radius)
            round_bytes = _FIXED_BYTES + _lattice_round_bytes(lat.size, cfg.dimension, m)
            s = _Round(cfg, index_set, lat) if round_bytes <= cap else None

        for strategy in cfg.strategies:
            run, row_bytes = _STRATEGIES[strategy]
            needed = round_bytes + row_bytes(lat.size, cfg.dimension, m)
            for rep in range(cfg.repetitions):
                seed = _derived_seed(cfg.seed, r_index, strategy, rep)
                try:
                    if needed > cap:
                        raise _Skip(f"needs {needed} bytes, over the memory cap of {cap}")
                    out = run(s, seed)
                except _Skip as skip:
                    out = _Outcome(None, 0, cfg.seed, _Clock().seconds)
                    trunc_sq = alias_sq = math.nan
                    setup_time, reason = 0.0, str(skip)
                else:
                    trunc_sq = s.trunc_sq
                    alias_sq = aliasing_error_sq(s.ref, out.coeffs)
                    setup_time, reason = clock.seconds["setup"], ""
                t = out.seconds
                report.rows.append(ExperimentRow(
                    radius, strategy, rep, m, out.num_points,
                    math.sqrt(trunc_sq), math.sqrt(alias_sq),
                    math.sqrt(trunc_sq + alias_sq),
                    setup_time, t["subsample"], t["solve"], t["bss"], out.seed,
                    skipped=out.coeffs is None, skip_reason=reason))
    return report


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
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"report format must be 'csv', 'json' or 'both', got {fmt!r}")
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
