"""Spectral (frame) bounds and exact-quadrature certification for sample plans.

For points ``x^i``, weights ``w_i``, and frequency set I, the extreme
eigenvalues (A, B) of the Hermitian Gram matrix ``L* W L`` are exactly the
best constants in the two-sided comparison

    A * ||f||^2  <=  sum_i w_i |f(x^i)|^2  <=  B * ||f||^2

over the spanned trigonometric space (the exponentials are orthonormal under
the normalized Lebesgue measure on the torus, so ||f||^2 = ||a||^2).  A > 0
certifies that weighted least squares reconstructs the space exactly; A = B
is equivalent to exact quadrature on all products of basis functions.

The constants come from dense eigensolves of the |I| x |I| Gram matrix,
which is not formed above ``DENSE_CAP_BYTES`` of complex entries.  A
lattice plan's Gram comes from its ``LatticeOperator`` (one length-M FFT of
the weights); over a symmetric set (I = -I) ``mz_constants`` takes it in
the real basis (``real_gram``), with the same eigenvalues, and runs a real
eigensolve.  Every other input, and ``gram_matrix`` itself, stays complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import LatticeOperator, _characters
from .index_sets import IndexSet
from .lattice import SamplePlan

__all__ = [
    "SpectralBounds",
    "gram_matrix",
    "mz_constants",
    "quadrature_exactness",
    "mz_report",
]

#: Largest dense complex matrix formed, in bytes (256 MiB): the |I| x |I|
#: Gram matrix of the certificates here, which the sparsifiers and
#: ``mz-audit`` compute (|I| <= 4096), and the N x |I| stage-1 rows of the
#: dense sparsifier paths (N |I| <= 2^24).
DENSE_CAP_BYTES = 1 << 28


@dataclass(frozen=True)
class SpectralBounds:
    """Lower/upper constants 0 <= A <= B of an MZ inequality / frame."""

    A: float
    B: float

    def __post_init__(self) -> None:
        if not (0 <= self.A <= self.B):
            raise ValueError(f"need 0 <= A <= B, got A={self.A}, B={self.B}")

    @property
    def ratio(self) -> float:
        """Condition ratio B/A (inf when A = 0)."""
        return self.B / self.A if self.A > 0 else np.inf


def _check_sizes(plan: SamplePlan, index_set: IndexSet) -> None:
    n = len(index_set)
    if 16 * n * n > DENSE_CAP_BYTES:
        raise ValueError(
            f"|I| = {n} needs a dense Gram matrix of {16 * n * n} bytes, above "
            f"DENSE_CAP_BYTES = {DENSE_CAP_BYTES}: it is not formed"
        )
    if plan.dimension != index_set.dimension:
        raise ValueError("dimension mismatch between plan and index set")


def gram_matrix(plan: SamplePlan, index_set: IndexSet) -> np.ndarray:
    """Assemble the |I| x |I| Hermitian Gram matrix ``L* W L``.

    Lattice-backed plans take ``LatticeOperator.gram``, one length-M FFT of
    the weights; arbitrary point sets fall back to blocked dense assembly.
    """
    _check_sizes(plan, index_set)
    n = len(index_set)
    if plan.lattice is not None:
        op = LatticeOperator(plan.lattice, index_set, plan.lattice_rows)
        G = op.gram(plan.weights)
    else:
        G = np.zeros((n, n), dtype=np.complex128)
        pts, w = plan.points, plan.weights
        step = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, len(pts), step):
            hi = min(lo + step, len(pts))
            L = _characters(pts[lo:hi], index_set.frequencies)
            G += L.conj().T @ (w[lo:hi, None] * L)
    return 0.5 * (G + G.conj().T)


def mz_constants(plan: SamplePlan, index_set: IndexSet) -> SpectralBounds:
    """Exact MZ/frame constants from the extreme eigenvalues of ``L* W L``.

    A lattice plan over a symmetric set (I = -I) is solved in the real basis
    (``LatticeOperator.real_gram``), with the same eigenvalues; any other
    input takes the complex ``gram_matrix``.
    """
    if plan.lattice is not None and index_set.symmetric:
        _check_sizes(plan, index_set)
        op = LatticeOperator(plan.lattice, index_set, plan.lattice_rows)
        G = op.real_gram(plan.weights)
    else:
        G = gram_matrix(plan, index_set)
    lam = np.linalg.eigvalsh(G)
    return SpectralBounds(A=max(float(lam[0]), 0.0), B=max(float(lam[-1]), 0.0))


def quadrature_exactness(
    plan: SamplePlan, index_set: IndexSet, tol: float = 1e-8
) -> float | None:
    """Constant A with ``L* W L = A * Id`` within ``tol`` (max norm), else None.

    A positive result certifies ``sum_i w_i g(x^i) conj(h(x^i)) = A <g, h>``
    for all g, h in the spanned space; by the parallelogram identity this is
    exactly the tight case A = B of the MZ inequality.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    G = gram_matrix(plan, index_set)
    A = float(np.mean(np.real(np.diag(G))))
    off = G - A * np.eye(len(index_set))
    if np.max(np.abs(off)) <= tol:
        return A
    return None


def mz_report(
    plan: SamplePlan, index_set: IndexSet, tol: float = 1e-8
) -> dict:
    """Diagnostic summary: constants, ratio, exactness flag, and sizes."""
    bounds = mz_constants(plan, index_set)
    exact = quadrature_exactness(plan, index_set, tol)
    return {
        "A": bounds.A,
        "B": bounds.B,
        "ratio": bounds.ratio if np.isfinite(bounds.ratio) else None,
        "exact_quadrature": exact is not None,
        "quadrature_constant": exact,
        "num_points": len(plan),
        "num_frequencies": len(index_set),
    }
