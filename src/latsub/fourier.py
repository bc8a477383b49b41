"""System operators: fast (lattice FFT) and dense realizations of L and L*.

The system matrix has entries ``L[i, k] = exp(2*pi*i*<k, x^i>)`` for sample
points ``x^i`` and frequencies ``k``.  On a rank-1 lattice every column is a
pure tone at residue ``<k, z> mod M``, so ``L a`` is one length-M FFT after
scattering coefficients onto residues, and ``L* f`` is one FFT followed by a
gather; both cost O(M log M) independent of |I|.  Subsampled point sets are
handled by a row mask (duplicate rows permitted, multiplicity preserved).

Arbitrary point sets use an explicit matrix, stored as one contiguous row of
``L^T`` per frequency.  The rows are built by recursion on the frequencies: a
frequency's parent is the frequency with its last nonzero coordinate ``j``
moved one step towards 0, and when the parent is in the set the row is the
parent's row times the tone ``exp(+-2*pi*i*x_j)``, filled level by level in
``|k|_1``.  Each entry costs one complex multiply; ``exp`` runs only on the
tone tables and on the rows of frequencies whose parent is missing (in a
hyperbolic cross, only ``k = 0``).  The adjoint is ``conj(conj(f) @ L)``,
which makes no copy of the matrix.

Operators are immutable and reentrant; residues are computed once per
(lattice, index set) pair at construction and shared by masked views.
"""

from __future__ import annotations

import numpy as np

from .index_sets import IndexSet
from .lattice import Rank1Lattice, residues

__all__ = ["SystemOperator", "LatticeOperator", "DenseOperator"]


def _characters(points: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The rows ``exp(2*pi*i*<k, x^i>)`` over the points, one per frequency.

    Returns ``L^T`` as a C-contiguous (len(freqs), len(points)) array.  Rows
    whose parent (last nonzero coordinate moved one step towards 0) is in
    ``freqs`` are the parent's row times one tone, written in place; the rest
    get ``np.exp``.
    """
    out = np.empty((len(freqs), points.shape[0]), dtype=np.complex128)
    up = np.exp(2j * np.pi * np.ascontiguousarray(points.T))
    tones = (up, up.conj())
    keys = [tuple(k) for k in freqs.tolist()]
    row_of = {k: i for i, k in enumerate(keys)}
    # level by level in |k|_1, so every parent row is filled before its children
    for i in np.argsort(np.abs(freqs).sum(axis=1), kind="stable").tolist():
        k = keys[i]
        nonzero = [j for j, c in enumerate(k) if c]
        p = None
        if nonzero:
            j = nonzero[-1]
            negative = k[j] < 0
            p = row_of.get(k[:j] + (k[j] + 1 if negative else k[j] - 1,) + k[j + 1:])
        if p is None:
            out[i] = np.exp(2j * np.pi * (points @ freqs[i]))
        else:
            np.multiply(out[p], tones[negative][j], out=out[i])
    return out


class SystemOperator:
    """Common interface: forward ``a -> L a``, adjoint ``f -> L* f``.

    Forward and adjoint are exact adjoints of one another with respect to the
    unweighted Euclidean inner products.
    """

    index_set: IndexSet
    kind: str

    @property
    def row_count(self) -> int:
        raise NotImplementedError

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def masked(self, rows: np.ndarray) -> "SystemOperator":
        """View of this operator restricted to the given rows (with duplicates)."""
        raise NotImplementedError

    def apply_normal(self, weights: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """The normal-equation operator ``a -> L* W L a`` (Hermitian PSD)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.row_count,):
            raise ValueError(
                f"expected {self.row_count} weights, got shape {w.shape}"
            )
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        return self.adjoint(w * self.forward(coeffs))

    def dense_matrix(self) -> np.ndarray:
        """Materialize L (row_count x |I|); intended for small instances."""
        raise NotImplementedError

    def _check_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        a = np.asarray(coeffs)
        if a.shape != (len(self.index_set),):
            raise ValueError(
                f"coefficient vector must have length {len(self.index_set)}, "
                f"got shape {a.shape}"
            )
        return a.astype(np.complex128, copy=False)

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        f = np.asarray(values)
        if f.shape != (self.row_count,):
            raise ValueError(
                f"value vector must have length {self.row_count}, got shape {f.shape}"
            )
        return f.astype(np.complex128, copy=False)


class LatticeOperator(SystemOperator):
    """FFT-accelerated operator on (a subset of) a rank-1 lattice.

    Parameters
    ----------
    lat:
        The underlying rank-1 lattice.
    index_set:
        Frequencies spanning the coefficient space.
    rows:
        Optional ordered row indices into the lattice (duplicates allowed).
        ``None`` means all M rows.
    """

    kind = "lattice_fft"

    def __init__(
        self,
        lat: Rank1Lattice,
        index_set: IndexSet,
        rows: np.ndarray | None = None,
        _residues: np.ndarray | None = None,
    ):
        if lat.dimension != index_set.dimension:
            raise ValueError("dimension mismatch between lattice and index set")
        self.lattice = lat
        self.index_set = index_set
        self._res = (
            residues(lat, index_set.frequencies) if _residues is None else _residues
        )
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1:
                raise ValueError("row mask must be a 1-d index list")
            if len(rows) and (rows.min() < 0 or rows.max() >= lat.size):
                raise ValueError("row mask indices out of range")
        self.rows = rows

    @property
    def row_count(self) -> int:
        return self.lattice.size if self.rows is None else len(self.rows)

    def masked(self, rows: np.ndarray) -> "LatticeOperator":
        if self.rows is not None:
            rows = self.rows[np.asarray(rows, dtype=np.int64)]
        return LatticeOperator(self.lattice, self.index_set, rows, self._res)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        a = self._check_coeffs(coeffs)
        M = self.lattice.size
        g = np.zeros(M, dtype=np.complex128)
        np.add.at(g, self._res, a)  # colliding residues accumulate
        values = M * np.fft.ifft(g)
        return values if self.rows is None else values[self.rows]

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        f = self._check_values(values)
        M = self.lattice.size
        if self.rows is None:
            full = f
        else:
            full = np.zeros(M, dtype=np.complex128)
            np.add.at(full, self.rows, f)  # duplicates accumulate
        return np.fft.fft(full)[self._res]

    def dense_matrix(self) -> np.ndarray:
        pts = self.lattice.points(self.rows)
        return _characters(pts, self.index_set.frequencies).T


class DenseOperator(SystemOperator):
    """Explicit-matrix operator for arbitrary point sets."""

    kind = "dense"

    def __init__(
        self, points: np.ndarray, index_set: IndexSet, rows: np.ndarray | None = None
    ):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != index_set.dimension:
            raise ValueError(
                f"points must have {index_set.dimension} columns, got {pts.shape[1]}"
            )
        if rows is not None:
            pts = pts[np.asarray(rows, dtype=np.int64)]
        self.points = pts
        self.index_set = index_set
        self._rows = _characters(pts, index_set.frequencies)  # L^T

    @property
    def row_count(self) -> int:
        return self.points.shape[0]

    def masked(self, rows: np.ndarray) -> "DenseOperator":
        return DenseOperator(self.points, self.index_set, rows)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        return self._check_coeffs(coeffs) @ self._rows

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        return (self._rows @ self._check_values(values).conj()).conj()

    def dense_matrix(self) -> np.ndarray:
        return self._rows.T
