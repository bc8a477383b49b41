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
which is not formed above ``DENSE_CAP_BYTES`` of complex entries.  On a
lattice plan the Gram entries are weighted character sums ``char[t] =
sum_i w_i exp(2 pi i t j_i / M)`` at residue differences, from one length-M
FFT.  Over a symmetric set (I = -I) ``mz_constants`` assembles the Gram in
the real basis of ``fourier._to_real`` straight from those sums, a real
symmetric matrix with the same eigenvalues, and runs a real eigensolve;
every other input, and ``gram_matrix`` itself, stays complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import _characters, _real_blocks
from .index_sets import IndexSet
from .lattice import SamplePlan, residues

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

_GRAM_BLOCK = 512


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


def _character_sums(plan: SamplePlan) -> np.ndarray:
    """``char[t] = sum_i w_i exp(2 pi i t j_i / M)`` over a lattice plan's rows."""
    M = plan.lattice.size
    w_full = np.zeros(M)
    if plan.lattice_rows is None:
        if len(plan.weights) != M:
            raise ValueError("full-lattice plan weight count != M")
        w_full[:] = plan.weights
    else:
        np.add.at(w_full, plan.lattice_rows, plan.weights)
    return M * np.fft.ifft(w_full)


def gram_matrix(plan: SamplePlan, index_set: IndexSet) -> np.ndarray:
    """Assemble the |I| x |I| Hermitian Gram matrix ``L* W L``.

    Lattice-backed plans use a single length-M FFT of the weight vector: the
    (k, l) entry is the weighted character sum at residue difference
    ``r_l - r_k``.  Arbitrary point sets fall back to blocked dense assembly.
    """
    _check_sizes(plan, index_set)
    n = len(index_set)
    if plan.lattice is not None:
        M = plan.lattice.size
        char = _character_sums(plan)
        r = residues(plan.lattice, index_set.frequencies)
        G = np.empty((n, n), dtype=np.complex128)
        for lo in range(0, n, _GRAM_BLOCK):
            hi = min(lo + _GRAM_BLOCK, n)
            G[lo:hi] = char[(r[None, :] - r[lo:hi, None]) % M]
    else:
        G = np.zeros((n, n), dtype=np.complex128)
        pts, w = plan.points, plan.weights
        step = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, len(pts), step):
            hi = min(lo + step, len(pts))
            L = _characters(pts[lo:hi], index_set.frequencies)
            G += L.conj().T @ (w[lo:hi, None] * L)
    return 0.5 * (G + G.conj().T)


def _real_gram(plan: SamplePlan, index_set: IndexSet) -> np.ndarray:
    """``T G T^H`` for a lattice plan over a symmetric set, as a real matrix.

    ``T`` is the real basis of ``fourier._to_real``, in the blocks of
    ``fourier._real_blocks``: the system matrix has the rows ``[sqrt2 cos,
    1, sqrt2 sin]`` of ``2 pi r_p j / M`` over the cos block's residues r_p.
    Products of those rows sum to the weighted character sums ``char`` at
    ``r_p -+ r_q``: the cos-cos and sin-sin blocks are ``Re char[r_p - r_q]
    +- Re char[r_p + r_q]``, the cos-sin block is ``Im char[r_q + r_p] + Im
    char[r_q - r_p]``, and the k = 0 row and column (m odd) are ``sqrt2
    Re/Im char[r_p]`` with ``char[0]`` on the diagonal.  ``char`` is made
    exactly Hermitian first, so the result is exactly symmetric.
    """
    _check_sizes(plan, index_set)
    M = plan.lattice.size
    char = _character_sums(plan)
    char[: M // 2 : -1] = char[1 : (M + 1) // 2].conj()  # char[-t] = conj char[t]
    m = len(index_set)
    cos, k0, sin = _real_blocks(m)
    r = residues(plan.lattice, index_set.frequencies[cos])
    G = np.empty((m, m))
    diff = char[(r[:, None] - r) % M]
    total = char[(r[:, None] + r) % M]
    np.add(diff.real, total.real, out=G[cos, cos])
    np.subtract(diff.real, total.real, out=G[sin, sin])
    np.subtract(total.imag, diff.imag, out=G[cos, sin])  # Im char[-t] = -Im char[t]
    del diff, total
    G[sin, cos] = G[cos, sin].T
    if m % 2:  # k = 0, the one position of its block
        z = k0.start
        edge = char[r] * math.sqrt(2.0)
        G[z, cos] = G[cos, z] = edge.real
        G[z, sin] = G[sin, z] = edge.imag
        G[z, z] = char[0].real
    return G


def mz_constants(plan: SamplePlan, index_set: IndexSet) -> SpectralBounds:
    """Exact MZ/frame constants from the extreme eigenvalues of ``L* W L``.

    A lattice plan over a symmetric set (I = -I) is solved in the real basis
    (``_real_gram``), with the same eigenvalues; any other input takes the
    complex ``gram_matrix``.
    """
    if plan.lattice is not None and index_set.symmetric:
        G = _real_gram(plan, index_set)
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
