"""Weighted least-squares reconstruction over any system operator.

Solves ``min_a || W^(1/2) (L a - f) ||_2`` by matrix-free conjugate
gradients on the normal equations ``(L* W L) a = L* W f``.  The solver
deliberately supports a hard iteration cap: on a certified-stable system a
handful of iterations already reaches the noise floor, so capped
non-convergence is reported in the diagnostics rather than raised as an
error.

On a symmetric index set (I = -I, every hyperbolic cross) with real samples
the solution is conjugate-symmetric, ``a_{-k} = conj(a_k)``.  There CG runs
on real vectors of length |I| in the orthonormal basis
``[sqrt2 cos, 1, sqrt2 sin]`` (``fourier._to_real``), with the right-hand
side from the operator's ``real_adjoint`` (one real FFT on a lattice) and
the normal operator from its ``real_normal``, and maps the result back to
complex coefficients once.  The basis is unitary, so the iterates, residual
norms and iteration counts are those of complex CG up to rounding.
Complex samples and other index sets solve in complex arithmetic.  Capped
CG is not linear in the data, so complex samples are not split into real
and imaginary solves.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .fourier import DenseOperator, LatticeOperator, SystemOperator, _from_real
from .index_sets import IndexSet
from .lattice import SamplePlan

__all__ = ["SolverConfig", "SolveDiagnostics", "least_squares", "reconstruct"]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping tolerance.

    The defaults mirror the intended production use: iterate the normal
    equations at most 10 times with an effectively unreachable residual
    tolerance, i.e. the iteration cap is the real stopping rule.
    """

    max_iterations: int = 10
    residual_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tolerance < 0:
            raise ValueError("residual_tolerance must be nonnegative")


@dataclass
class SolveDiagnostics:
    """Solve metadata; serializes to JSON for reports.

    ``normal_residual`` is the norm of CG's recursive residual, which is
    ``|| L* W (f - L a) ||`` in exact arithmetic; the solve applies neither
    ``L`` nor ``L*`` to compute it.
    """

    operator_kind: str
    iterations: int
    normal_residual: float
    converged: bool
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _solve_cg(normal, rhs, cfg):
    """Conjugate gradients on a Hermitian PSD ``normal``, zero start.

    Real or complex, as ``rhs`` is.  Returns the iterate, the iteration
    count, the final residual norm and whether it met the tolerance.
    """
    a = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return a, 0, 0.0, True
    rz = float(np.real(np.vdot(r, r)))
    threshold = cfg.residual_tolerance * rhs_norm
    iterations = 0
    converged = np.sqrt(rz) <= threshold
    while not converged and iterations < cfg.max_iterations:
        Gp = normal(p)
        denom = float(np.real(np.vdot(p, Gp)))
        if denom <= 0:  # numerically semidefinite direction; stop here
            break
        alpha = rz / denom
        a += alpha * p
        r -= alpha * Gp
        rz_new = float(np.real(np.vdot(r, r)))
        iterations += 1
        if np.sqrt(rz_new) <= threshold:
            rz = rz_new
            converged = True
            break
        p = r + (rz_new / rz) * p
        rz = rz_new
    return a, iterations, float(np.sqrt(rz)), converged


def least_squares(
    op: SystemOperator,
    weights: np.ndarray,
    samples: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Minimize ``|| W^(1/2) (L a - f) ||`` and return (coefficients, diagnostics).

    Runs conjugate gradients on the normal operator from a zero start,
    stopping at ``residual_tolerance`` (relative, on the normal residual) or
    ``max_iterations``, whichever comes first; hitting the cap is flagged in
    the diagnostics, not raised.  On a symmetric index set with real samples
    (every imaginary part 0) it runs in the real basis.
    """
    cfg = cfg or SolverConfig()
    w = op._check_weights(weights)
    f = np.asarray(samples)
    if f.shape != (op.row_count,):
        raise ValueError(f"expected {op.row_count} samples, got {f.shape}")
    real = not np.iscomplexobj(f) or not np.any(f.imag)
    real_basis = real and op.index_set.symmetric
    if real_basis:
        f = f.real.astype(np.float64, copy=False)
    else:
        f = f.astype(np.complex128, copy=False)

    start = time.perf_counter()
    if real_basis:
        rhs = op.real_adjoint(w * f)  # first, so its buffers go before the operator's
        x, iterations, normal_residual, converged = _solve_cg(op.real_normal(w), rhs, cfg)
        a = _from_real(x)
    else:
        a, iterations, normal_residual, converged = _solve_cg(
            op.normal(w), op.adjoint(w * f), cfg)
    elapsed = time.perf_counter() - start

    diag = SolveDiagnostics(
        operator_kind=op.kind,
        iterations=iterations,
        normal_residual=normal_residual,
        converged=bool(converged),
        wall_time_s=elapsed,
    )
    return a, diag


def operator_for(source, index_set: IndexSet) -> SystemOperator:
    """The natural system operator for a plan or selection.

    Lattice-backed sources get the FFT operator (with a row mask when the
    source is a subset of the lattice); everything else gets a dense matrix.
    """
    from .subsampling import SubsampleSelection

    if isinstance(source, SubsampleSelection):
        plan, rows = source.parent, source.indices
    elif isinstance(source, SamplePlan):
        plan, rows = source, None
    else:
        raise TypeError(f"cannot build an operator for {type(source).__name__}")
    if plan.lattice is not None:
        return LatticeOperator(plan.lattice, index_set, source.lattice_rows)
    return DenseOperator(plan.points, index_set, rows)


def reconstruct(
    source,
    index_set: IndexSet,
    samples: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Weighted least squares with weights and operator taken from ``source``.

    ``source`` is a SamplePlan or SubsampleSelection; its quadrature weights
    (or reweights) become W, and lattice structure is exploited when present.
    """
    from .subsampling import SubsampleSelection

    op = operator_for(source, index_set)
    if isinstance(source, SubsampleSelection):
        weights = source.reweights
    else:
        weights = source.weights
    return least_squares(op, weights, samples, cfg)
