"""Command-line interface: experiment runs, lattice search, stability audits.

Subcommands:
  exp1            full / randomly subsampled / continuous-random comparison
  exp2            exp1 plus plain sparsification down to ceil(b |I|) points
  lattice-search  find a reconstructing rank-1 lattice for an index set
  mz-audit        stability constants and exactness flag for a lattice + set

Experiment flags override the JSON config file when both are given.  Exit
code is 0 only if every enabled report assertion passes, and 2, with one
``error:`` line, on bad input or a run that cannot complete.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial

from .experiments import (
    ExperimentConfig,
    check_report,
    emit_report,
    run_experiment_1,
    run_experiment_2,
)
from .index_sets import IndexSet, hyperbolic_cross
from .lattice import Rank1Lattice, lattice_points, search_generator
from .mz import mz_report


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--gamma", type=float, help="cross shape parameter")
    p.add_argument("--radii", help="comma-separated radius schedule")
    p.add_argument("--strategies", help="comma-separated strategy names")
    p.add_argument("--b", type=float, help="sparsification oversampling factor")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--reps", type=int, help="repetitions per configuration")
    p.add_argument("--mem-cap", type=int, help=(
        "memory cap in bytes: a row runs only when its round's and its own "
        "estimated arrays fit (imported modules are not counted)"))
    p.add_argument("--out", help="output directory")
    p.add_argument(
        "--format", choices=["csv", "json", "both"], default="both",
        help="report formats to write",
    )


_FLAG_TO_FIELD = {
    "d": "dimension",
    "gamma": "gamma",
    "b": "b",
    "seed": "seed",
    "reps": "repetitions",
    "mem_cap": "memory_cap_bytes",
    "out": "output_dir",
}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ValueError(f"config {args.config} has unknown fields: {unknown}")
        fields.update(loaded)
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            fields[field_name] = value
    if args.radii is not None:
        fields["radii"] = tuple(float(tok) for tok in args.radii.split(","))
    if args.strategies is not None:
        fields["strategies"] = tuple(args.strategies.split(","))
    return ExperimentConfig(**fields)


def _run_experiment(args: argparse.Namespace, runner) -> int:
    report = runner(_experiment_config(args))
    paths = emit_report(report, args.format)
    for path in paths:
        print(f"wrote {path}")
    problems = check_report(report)
    for problem in problems:
        print(f"assertion failed: {problem}", file=sys.stderr)
    skipped = [r for r in report.rows if r.skipped]
    if skipped:
        reasons = sorted({r.skip_reason for r in skipped})
        print(f"skipped {len(skipped)} rows: {'; '.join(reasons)}")
    return 1 if problems else 0


def _load_index_set(args: argparse.Namespace) -> IndexSet:
    if args.index_set:
        return IndexSet.load(args.index_set)
    if args.d is None or args.gamma is None or args.radius is None:
        raise ValueError("provide --index-set or all of --d/--gamma/--radius")
    return hyperbolic_cross(args.d, args.gamma, args.radius)


def _cmd_lattice_search(args: argparse.Namespace) -> int:
    index_set = _load_index_set(args)
    lat = search_generator(index_set, rng_seed=args.seed)
    line = lat.to_line()
    if args.out:
        lat.save(args.out)
        print(f"wrote {args.out}")
    print(line)
    print(f"oversampling M/|I| = {lat.size / len(index_set):.3f}")
    return 0


def _cmd_mz_audit(args: argparse.Namespace) -> int:
    index_set = _load_index_set(args)
    lat = Rank1Lattice.load(args.lattice)
    report = mz_report(lattice_points(lat), index_set, tol=args.tol)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="latsub",
        description="Function reconstruction from subsampled rank-1 lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("exp1", help="three-strategy reconstruction comparison")
    _add_experiment_flags(p1)
    p1.set_defaults(handler=partial(_run_experiment, runner=run_experiment_1))
    p2 = sub.add_parser("exp2", help="exp1 plus plain sparsification")
    _add_experiment_flags(p2)
    p2.set_defaults(handler=partial(_run_experiment, runner=run_experiment_2))

    pl = sub.add_parser("lattice-search", help="find a reconstructing lattice")
    pl.add_argument("--index-set", help="index set file (text format)")
    pl.add_argument("--d", type=int)
    pl.add_argument("--gamma", type=float)
    pl.add_argument("--radius", type=float)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--out", help="write the lattice line to this file")
    pl.set_defaults(handler=_cmd_lattice_search)

    pm = sub.add_parser("mz-audit", help="stability constants for a lattice")
    pm.add_argument("--lattice", required=True, help="lattice file (d M z...)")
    pm.add_argument("--index-set", help="index set file (text format)")
    pm.add_argument("--d", type=int)
    pm.add_argument("--gamma", type=float)
    pm.add_argument("--radius", type=float)
    pm.add_argument("--tol", type=float, default=1e-8)
    pm.add_argument("--out", help="write the JSON report to this file")
    pm.set_defaults(handler=_cmd_mz_audit)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
