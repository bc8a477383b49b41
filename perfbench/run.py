"""Benchmark of latsub's experiment CLI: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exp2-bss --seed 1 --seconds 25 --trace 0

The set-up times fresh-interpreter imports of latsub.  The measured part
calls ``latsub.cli.main`` in this process, round after round until
``--seconds`` have passed, each round with a config generated from the seed
and the round number and a fresh output directory (so the lattice cache starts
cold).  Every row of every round is checked against ``reference``.  With
``--trace 1`` each seed is run once untraced and once with spans around
latsub's public functions, and the per-layer metrics are reported instead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

#: BLAS threads; one thread is the steadiest setting on a small shared machine.
#: Set before numpy is first imported, and inherited by the import probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Private bytecode cache of the import probes, so that every timed import
#: reads compiled bytecode whatever the caller's environment says.
PYCACHE = OUT / "pycache"
#: Fresh-interpreter imports timed for ``setup_s``, after one untimed warm-up
#: that fills the file cache and ``PYCACHE``.
SETUP_IMPORTS = 5
#: ``python -X importtime`` runs behind the ``setup.*`` trace metrics.
IMPORTTIME_RUNS = 3


@dataclass(frozen=True)
class Workload:
    """One experiment config; the seed is filled in per round."""

    command: str
    baseline: str  # the strategy the workload isolates, read by the ``*.baseline`` metrics
    dimension: int
    radii: tuple[float, ...]
    strategies: tuple[str, ...]
    repetitions: int
    read_radius: float  # where the error and points metrics are read
    gamma: float = 0.5
    smoothness: float = 1.5
    b: float = 2.0

    @property
    def operations(self) -> int:
        return len(self.radii) * len(self.strategies) * self.repetitions

    def config(self, seed: int, output_dir: Path) -> dict:
        """ExperimentConfig fields, as ``latsub exp1/exp2 --config`` reads them."""
        fields = asdict(self)
        del fields["command"], fields["baseline"], fields["read_radius"]
        return dict(fields, seed=seed, output_dir=str(output_dir))


# The metrics are read at a radius where the lattice search finds the same M
# for nine seeds in ten or more, so that the median over a run's rounds does
# not flip between runs; see the README.  exp2-bss reads them at R = 10:
# at R = 12 (|I| = 341, kept so that the sparsifier runs at two sizes) about
# three seeds in ten give twice the M.
WORKLOADS = {
    "exp1-dense": Workload(
        "exp1", "continuous_random", 5, (8.0, 12.0, 16.0, 22.0),
        ("full", "random_sub", "continuous_random"), repetitions=1, read_radius=22.0),
    "exp2-bss": Workload(
        "exp2", "bss_sub", 5, (10.0, 12.0), ("full", "random_sub", "bss_sub"),
        repetitions=1, read_radius=10.0),
    "lattice-fft": Workload(
        "exp1", "random_sub", 10, (8.0, 14.0), ("full", "random_sub"),
        repetitions=6, read_radius=14.0),
}


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """The config seed of one round, derived from the benchmark seed."""
    return random.Random(f"{workload}/{seed}/{round_index}").randrange(2**31)


def _child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_import_seconds() -> float:
    probe = "import time; t = time.perf_counter(); import latsub; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def import_times() -> dict:
    """Cumulative import seconds of latsub and two heavy dependencies."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import latsub"],
                          env=_child_env(), capture_output=True, text=True, check=True,
                          timeout=120)
    cumulative = {}
    for line in done.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) * 1e-6)
    return {
        "setup.import_s": cumulative.get("latsub", 0.0),
        "setup.import_sympy_s": cumulative.get("sympy", 0.0),
        "setup.import_scipy_sparse_linalg_s": cumulative.get("scipy.sparse.linalg", 0.0),
    }


@dataclass
class Round:
    body_s: float
    outcome: checks.RoundOutcome
    layers: dict | None = None  # per-layer metrics of a traced round


def run_round(name, workload, seed, round_dir, references, traced) -> Round:
    """One call of ``latsub.cli.main`` on a fresh output directory, then its checks."""
    import latsub.cli

    shutil.rmtree(round_dir, ignore_errors=True)
    out_dir = round_dir / "out"
    round_dir.mkdir(parents=True)
    config_path = round_dir / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, out_dir)), encoding="ascii")
    argv = [workload.command, "--config", str(config_path)]

    tracer = None
    main = latsub.cli.main
    if traced:
        import tracing

        tracer = tracing.Tracer()
        main = tracer.wrap("cli.main", main)
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                main(argv)
            except Exception:  # the rows it did not produce count as failed
                traceback.print_exc()
            body_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    outcome = checks.check_round(workload, out_dir, references, tracer)
    layers = None
    if tracer is not None:
        written = [p for paths in tracer.captured["experiments.emit_report"] for p in paths]
        random_sub_rows = sum(r["strategy"] == "random_sub" for r in outcome.passed)
        layers = tracing.layer_metrics(
            tracer, random_sub_rows, sum(os.path.getsize(p) for p in written))
        layers["spans"] = [asdict(s) for s in tracer.spans]
    shutil.rmtree(round_dir)
    for failure in outcome.failures:
        print(f"{name} seed {seed}: {failure}", file=sys.stderr)
    print(f"{name} seed {seed}{' traced' if traced else ''}: {body_s:.3f} s, "
          f"{len(outcome.passed)}/{outcome.expected} rows passed", file=sys.stderr)
    return Round(body_s, outcome, layers)


def _median_at_read_radius(rows, workload, strategy, column) -> float | None:
    values = [r[column] for r in rows
              if r["strategy"] == strategy and r["radius"] == workload.read_radius]
    return statistics.median(values) if values else None


def end_to_end(workload, rounds, setup, references) -> dict:
    rows = [row for rnd in rounds for row in rnd.outcome.passed]
    size = references[workload.read_radius].size

    def at_read_radius(strategy, column, scale=1.0):
        # None when the strategy has no passing row at the read radius
        value = _median_at_read_radius(rows, workload, strategy, column)
        return None if value is None else value / scale

    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r.body_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error.full": at_read_radius("full", "total_error"),
        "error.random_sub": at_read_radius("random_sub", "total_error"),
        "error.baseline": at_read_radius(workload.baseline, "total_error"),
        "points_per_freq.full": at_read_radius("full", "num_points", size),
        "points_per_freq.baseline": at_read_radius(workload.baseline, "num_points", size),
    }


def per_layer(traced, untraced, imports) -> dict:
    names = [k for k in traced[0].layers if k != "spans"]
    metrics = {k: statistics.median(r.layers[k] for r in traced) for k in names}
    for key in imports[0]:
        metrics[key] = statistics.median(t[key] for t in imports)
    metrics["trace.overhead_s"] = statistics.median(
        t.body_s - u.body_s for t, u in zip(traced, untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latsub" / "__init__.py").is_file():
        print(f"error: no latsub sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    fresh_import_seconds()  # warm-up
    if args.trace:
        imports = [import_times() for _ in range(IMPORTTIME_RUNS)]
    else:
        setup = [fresh_import_seconds() for _ in range(SETUP_IMPORTS)]

    sys.path.insert(0, str(SRC))
    import latsub.cli  # noqa: F401  (in-process import before the first round)

    references = {r: reference.CrossReference(workload.dimension, workload.gamma, r)
                  for r in workload.radii}

    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        seed = round_seed(args.workload, args.seed, index)
        round_dir = OUT / f"{args.workload}-seed{args.seed}-round{index}"
        # traced runs pair each seed with an untraced round, alternating the order
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in (order if args.trace else (False,)):
            rnd = run_round(args.workload, workload, seed, round_dir, references, with_trace)
            (traced if with_trace else untraced).append(rnd)
        index += 1

    rounds = untraced + traced
    if args.trace:
        metrics = per_layer(traced, untraced, imports)
        spans = [dict(span, round=i) for i, r in enumerate(traced) for span in r.layers["spans"]]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans), encoding="ascii")
    else:
        metrics = end_to_end(workload, untraced, setup, references)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": not any(r.outcome.wrong for r in rounds),
        "attempted": sum(r.outcome.expected for r in rounds),
        "failed": sum(r.outcome.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
