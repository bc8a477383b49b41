"""Per-round verification of an experiment report against the references.

Every row of a round is one operation.  A row fails when the program skipped
it, when latsub's own ``check_report`` flags it, when it fails one of the
independent checks below, or when the round ended before producing it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

#: Relative tolerance between latsub's error columns and the references.
ERROR_RTOL = 1e-8


@dataclass
class RoundOutcome:
    expected: int
    passed: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wrong: bool = False  # a produced row disagreed with a check

    @property
    def failed(self) -> int:
        return self.expected - len(self.passed)


def _tag(row: dict) -> str:
    # the prefix latsub.experiments.check_report gives each problem
    return f"[{row['strategy']} R={row['radius']} rep={row['repetition']}]"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ERROR_RTOL * max(abs(b), 1e-300)


def _lattices(out_dir: Path, radii) -> dict:
    """Generator and size of the lattice latsub cached for each radius."""
    found = {}
    for radius in radii:
        for path in (out_dir / "lattice_cache").glob(f"*_R{float(radius)!r}_*.txt"):
            tok = path.read_text(encoding="ascii").split()
            d, M = int(tok[0]), int(tok[1])
            found[float(radius)] = (M, [int(t) for t in tok[2:2 + d]])
    return found


def _row_problems(row, ref, lattice, b) -> list[str]:
    m = ref.size
    problems = []
    if row["num_frequencies"] != m:
        problems.append(f"|I| = {row['num_frequencies']}, expected {m}")
    trunc, alias, total = row["truncation_error"], row["aliasing_error"], row["total_error"]
    if not _close(trunc, ref.truncation_error):
        problems.append(f"truncation {trunc!r} != reference {ref.truncation_error!r}")
    if abs(total**2 - (trunc**2 + alias**2)) > 1e-10 * total**2:
        problems.append("total^2 != truncation^2 + aliasing^2")
    if alias > trunc:
        problems.append(f"aliasing {alias:.3e} exceeds truncation {trunc:.3e}")
    n, strategy = row["num_points"], row["strategy"]
    if strategy in ("random_sub", "continuous_random") and n != reference.random_draw_size(m):
        problems.append(f"{n} points, expected ceil(|I| ln|I|) = {reference.random_draw_size(m)}")
    if strategy == "bss_sub" and n > math.ceil(b * m):
        problems.append(f"{n} points exceed ceil(b |I|) = {math.ceil(b * m)}")
    if strategy == "full":
        if lattice is None:
            problems.append("no cached lattice")
        elif n != lattice[0] or n < m:
            problems.append(f"{n} points, lattice has M = {lattice[0]} for |I| = {m}")
        elif not ref.is_reconstructed_by(*lattice):
            problems.append(f"lattice M={lattice[0]} z={lattice[1]} is not reconstructing")
    return problems


def _traced_problems(rows, references, tracer, b) -> dict[int, list[str]]:
    """Checks on the solutions and selections the traced round captured.

    Each solve's aliasing error is recomputed from its returned coefficients,
    and each sparsified selection's lower frame constant from a dense Gram.
    """
    found: dict[int, list[str]] = {}

    def flag(i, message):
        found.setdefault(i, []).append(message)

    def check_solution(i, freqs, coeffs):
        ref = references[float(rows[i]["radius"])]
        if not ref.same_set(freqs):
            flag(i, "solved over a different frequency set")
        elif not _close(ref.aliasing_error(freqs, coeffs), rows[i]["aliasing_error"]):
            flag(i, "aliasing error differs when recomputed from the coefficients")

    produced = [i for i, r in enumerate(rows) if not r["skipped"]]
    solved = [i for i in produced if rows[i]["strategy"] != "full"]
    solutions = tracer.captured["solver.least_squares"]
    if len(solutions) != len(solved):
        for i in solved:
            flag(i, f"{len(solutions)} solves for {len(solved)} rows")
    else:
        for i, (freqs, coeffs, _) in zip(solved, solutions):
            check_solution(i, freqs, coeffs)

    full = [payload for _, payload in tracer.captured["fourier.lattice_adjoint"] if payload]
    by_radius = dict(zip(sorted({rows[i]["radius"] for i in produced
                                 if rows[i]["strategy"] == "full"}), full))
    for i in produced:
        if rows[i]["strategy"] == "full":
            if rows[i]["radius"] in by_radius:
                check_solution(i, *by_radius[rows[i]["radius"]])
            else:
                flag(i, "no full-lattice solve captured")

    sparsified = [i for i in produced if rows[i]["strategy"] == "bss_sub"]
    selections = tracer.captured["subsampling.plain_bss_subsample"]
    if len(selections) != len(sparsified):
        for i in sparsified:
            flag(i, f"{len(selections)} selections for {len(sparsified)} rows")
        return found
    bound = reference.plain_lower_bound(b)
    for i, (sel, freqs) in zip(sparsified, selections):
        lat = sel.parent.lattice
        idx = np.asarray(sel.indices, dtype=np.int64)
        points = (idx[:, None] * np.asarray(lat.generator)[None, :] % lat.size) / lat.size
        lower = reference.lower_frame_constant(points, sel.reweights, freqs)
        # A = 1: the parent lattice is reconstructing, checked on the full rows
        if lower < bound * (1 - 1e-9):
            flag(i, f"lower frame constant {lower:.6g} below the certified {bound:.6g}")
    return found


def check_round(workload, out_dir: Path, references: dict, tracer=None) -> RoundOutcome:
    """Verify one round's ``report.json`` and lattice cache in ``out_dir``."""
    from latsub.experiments import ExperimentReport, check_report

    outcome = RoundOutcome(expected=workload.operations)
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        outcome.failures.append(f"no report: all {outcome.expected} rows missing")
        return outcome
    data = json.loads(report_path.read_text(encoding="ascii"))
    rows = data["rows"]
    flagged = {p.split("]")[0] + "]" for p in check_report(ExperimentReport.from_json_dict(data))}
    lattices = _lattices(out_dir, workload.radii)
    traced = _traced_problems(rows, references, tracer, workload.b) if tracer else {}
    for i, row in enumerate(rows):
        if row["skipped"]:
            outcome.failures.append(f"{_tag(row)} skipped: {row['skip_reason']}")
            continue
        radius = float(row["radius"])
        problems = _row_problems(row, references[radius], lattices.get(radius), workload.b)
        problems += traced.get(i, [])
        if _tag(row) in flagged:
            problems.append("flagged by check_report")
        if problems:
            outcome.wrong = True
            outcome.failures.append(f"{_tag(row)} " + "; ".join(problems))
        else:
            outcome.passed.append(row)
    if len(rows) != outcome.expected:
        outcome.failures.append(f"{len(rows)} rows for {outcome.expected} operations")
        outcome.passed = outcome.passed[: outcome.expected]
        outcome.wrong = outcome.wrong or len(rows) > outcome.expected
    return outcome
