"""System operators: fast (lattice FFT) and dense realizations of L and L*.

The system matrix has entries ``L[i, k] = exp(2*pi*i*<k, x^i>)`` for sample
points ``x^i`` and frequencies ``k``.  On a rank-1 lattice every column is a
pure tone at residue ``<k, z> mod M``, so ``L a`` is one length-M FFT after
scattering coefficients onto residues, and ``L* f`` is one FFT followed by a
gather; both cost O(M log M) independent of |I|.  Subsampled point sets are
handled by a row mask (duplicate rows permitted, multiplicity preserved).

The normal operator ``L* W L`` never applies ``L`` and ``L*`` in turn on a
lattice: it is the circular convolution ``(L* W L a)_k = sum_l a_l H[(r_k -
r_l) mod M]`` over residues ``r``, with ``H = fft_M(h)`` and ``h`` the total
weight on each lattice point.  ``H`` is computed once per weight vector and
embedded in a circulant of length ``L``: ``M`` itself when ``M`` is 5-smooth,
else the smallest 5-smooth length >= 2M-1, with the negative lags wrapped to
the tail so that no two lags share a slot.  Each application is then two
FFTs at that fast length instead of two at the (usually prime) lattice size.
The operator holds two complex length-``L`` buffers, the kernel's spectrum
and an in-place work array, so at most about 4M complex numbers.

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
(lattice, index set) pair at construction and shared by masked views.  The
function returned by ``normal`` writes into its own buffer, so one of them
serves one caller at a time.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .index_sets import IndexSet
from .lattice import Rank1Lattice, residues

__all__ = ["SystemOperator", "LatticeOperator", "DenseOperator"]


def _fast_length(n: int) -> int:
    """The smallest 5-smooth integer (``2^a 3^b 5^c``) that is >= ``n``."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = -(-n // p35)  # ceil(n / p35)
            best = min(best, p35 << max(q - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _circulant_length(M: int) -> int:
    """FFT length of the normal operator's circulant for lattice size M.

    M itself when it is 5-smooth (the convolution is already circular mod M),
    otherwise the smallest 5-smooth length >= 2M-1, long enough for the lags
    -(M-1)..M-1 to occupy distinct slots.
    """
    return M if _fast_length(M) == M else _fast_length(2 * M - 1)


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

    def normal(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The normal-equation operator ``a -> L* W L a`` (Hermitian PSD).

        The weights are checked once; the returned function applies the
        operator to one coefficient vector per call.
        """
        w = self._check_weights(weights)
        return lambda coeffs: self.adjoint(w * self.forward(coeffs))

    def dense_matrix(self) -> np.ndarray:
        """Materialize L (row_count x |I|); intended for small instances."""
        raise NotImplementedError

    def _check_weights(self, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.row_count,):
            raise ValueError(
                f"expected {self.row_count} weights, got shape {w.shape}"
            )
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        return w

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

    def normal(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``a -> L* W L a`` as a circular convolution over residues.

        ``(L* W L a)_k = sum_l a_l H[(r_k - r_l) mod M]`` with ``H = fft_M(h)``
        and ``h`` the total weight on each lattice point.  ``H`` is embedded
        in a circulant of the fast length ``L`` (negative lags wrapped to the
        tail), so each call is a scatter, ``fft_L``, a multiply, ``ifft_L``
        and a gather.  The returned function writes into its own buffer and
        is not reentrant.
        """
        w = self._check_weights(weights)
        M = self.lattice.size
        h = w if self.rows is None else np.bincount(self.rows, w, minlength=M)
        H = np.fft.fft(h)
        L = _circulant_length(M)
        kernel = np.zeros(L, dtype=np.complex128)
        kernel[:M] = H
        kernel[L - M + 1 :] = H[1:]  # lags -(M-1)..-1; a no-op when L == M
        np.fft.fft(kernel, out=kernel)
        buf = np.empty(L, dtype=np.complex128)
        res = self._res

        def apply(coeffs: np.ndarray) -> np.ndarray:
            a = self._check_coeffs(coeffs)
            buf.fill(0)
            np.add.at(buf, res, a)  # colliding residues accumulate
            np.fft.fft(buf, out=buf)
            np.multiply(buf, kernel, out=buf)
            np.fft.ifft(buf, out=buf)
            return buf[res]

        return apply

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
