"""System operators: fast (lattice FFT) and dense realizations of L and L*.

The system matrix has entries ``L[i, k] = exp(2*pi*i*<k, x^i>)`` for sample
points ``x^i`` and frequencies ``k``.  On a rank-1 lattice every column is a
pure tone at residue ``<k, z> mod M``, so ``L a`` is one length-M FFT after
scattering coefficients onto residues, and ``L* f`` is one FFT followed by a
gather; both cost O(M log M) independent of |I|.  Subsampled point sets are
handled by a row mask (duplicate rows permitted, multiplicity preserved).

Every hyperbolic cross is symmetric (I = -I), and in lex order frequency p
is the negative of frequency m-1-p.  Real samples then have a
conjugate-symmetric least-squares solution (``a_{-k} = conj(a_k)``), and the
unitary change of basis ``T`` of ``_to_real`` (pair p with m-1-p, h = m // 2,
laid out by ``_real_blocks``) makes it real: ``T a = [sqrt2 Re a_p (p < h),
a_h, -sqrt2 Im a_p (p < h)]``, with a_h the k = 0 entry when m is odd.  In
that basis the system matrix
``L T^H`` is real, with rows ``[sqrt2 cos, 1, sqrt2 sin]`` of ``2 pi <k_p,
x^i>``, the orthonormal real trigonometric basis.  ``real_adjoint`` and
``real_normal`` act on such real coordinates; the solver uses them for real
samples on symmetric sets.

The complex normal operator ``L* W L`` is ``adjoint(w * forward(a))`` on
every operator.  Every lattice transform runs at M itself (numpy's FFT
takes any length, primes included).  On a lattice every real coordinate
is one tone, and ``LatticeOperator._real_basis`` states the real basis
once: coordinate q is ``Re(sigma_q exp(2 pi i rho_q j / M))`` at lattice
point j, with rho_q the residue of the cos-block frequency of q's pair (0
for k = 0) and sigma_q = sqrt2, 1 or -i sqrt2 by block.  Read on a
Hermitian half spectrum (slots 0..M//2, ``_real_slots``), q sits at slot
rho_q with factor sigma_q, or at slot M - rho_q with conj(sigma_q) when
2 rho_q > M.  The weights ``W`` act as the total weight h on each of the
M points (a masked view may draw a point several times), so
``real_normal`` scatters x into a half spectrum, ``irfft``s it to the
values on the lattice, multiplies by h, ``rfft``s back and gathers: no
transform to build it, and about 3M real numbers held.  The real
right-hand side ``real_adjoint(w * f)`` is one ``rfft`` of the point sums
of ``w * f``, gathered from the same slots.

Arbitrary point sets use an explicit matrix.  On a symmetric set it is the
real ``(L T^H)^T``, |I| x N float64 by default or float32 when asked, one
contiguous row per frequency and half the bytes of the complex matrix (a
quarter in float32): its normal apply is two real matrix-vector products,
and complex ``forward``/``adjoint`` go through ``T`` with real products.
float32 storage casts every vector at the operator's boundary, so callers
see float64 and the matrix is never promoted.  Its rows are built by
recursion on the frequencies: a frequency's parent is the frequency with
its last nonzero coordinate ``j`` moved one step towards 0, and when the
parent is in the set its (cos, sin) row pair is the parent's pair rotated
by the tone ``exp(+-2*pi*i*x_j)``, four real multiplies per point in the
storage type, filled level by level in ``|k|_1``.  Only the tone tables
and the rows of frequencies whose parent is missing go through ``cos`` and
``sin``, in float64.  On other sets the matrix is the complex ``L`` of
``_characters``, one ``exp`` per entry, and the adjoint is
``conj(conj(f) @ L)``, which makes no copy of it.

The lattice operator also owns what the certificates and the barrier
greedy read off the lattice, from the same residues r and point sums.  The
weight spectrum ``char[t] = sum_i w_i exp(2 pi i t j_i / M)`` over the rows
j_i is one length-M FFT of the point sums, and the Gram ``L* W L`` has
entry (k, l) ``char[r_l - r_k]`` (``gram``).  In the real basis the Gram
(``real_gram``) follows from the map, as the weighted sum of the product
of two tones, and so do the greedy's rows ``diag(s) L T^H``
(``real_rows``): a row is the map at its point, and the products of all
rows with real w and g are ``real_normal``'s scatter of both, one batched
``irfft`` and a gather at the rows, with no N x |I| matrix formed.

Operators hold read-only copies of their row masks (in range, never
negative) and points, and are immutable and reentrant; residues are
computed once per (lattice, index set) pair and shared by masked views.  The
functions a lattice ``real_normal`` and ``real_rows`` return write into
their own buffers, so each serves one caller at a time.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .index_sets import IndexSet, _admit, _frozen, _index_list, _weight_vector
from .lattice import Rank1Lattice, residues

__all__ = ["SystemOperator", "LatticeOperator", "DenseOperator"]


def _characters(points: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The system matrix ``L[i, k] = exp(2*pi*i*<k, x^i>)``, points by freqs.

    The one complex character builder, one ``exp`` per entry: the dense
    operator on an asymmetric set, the stage-1 rows of the sparsifiers and
    the Gram matrix of a point set without a lattice all take it.
    """
    return np.exp(2j * np.pi * (points @ freqs.T))


_SQRT2 = math.sqrt(2.0)

_GRAM_BLOCK = 512  # rows of the complex lattice Gram gathered at a time


def _real_blocks(m: int) -> tuple[slice, slice, slice]:
    """The cos, k = 0 and sin blocks of the real basis of a symmetric set.

    The one statement of the real-basis layout for |I| = m in lex order,
    where frequency p is the negative of frequency m-1-p: with h = m // 2,
    the cos block holds positions p < h, the k = 0 block position h (empty
    when m is even) and the sin block position m-h+p, the partner of p.  A
    real row of ``L T^H`` at x is ``sqrt2 cos 2 pi <k_p, x>`` in the cos
    block, 1 at k = 0 and ``sqrt2 sin 2 pi <k_p, x>`` in the sin block.
    ``_to_real``, ``_from_real``, ``_real_characters`` and the lattice
    operator's real basis (``LatticeOperator._real_basis``, which its
    real-basis methods read) all index through these blocks.
    """
    h = m // 2
    return slice(0, h), slice(h, m - h), slice(m - h, m)


def _to_real(a: np.ndarray) -> np.ndarray:
    """``T a`` along the first axis: coordinates in the real basis.

    ``T`` is unitary, with row ``(e_p + e_{m-1-p}) / sqrt2`` at p in the cos
    block, ``e_h`` in the k = 0 block, and ``i (e_p - e_{m-1-p}) / sqrt2`` in
    the sin block (``_real_blocks``).  On a conjugate-symmetric vector the
    result is real: ``[sqrt2 Re a_p, a_h, -sqrt2 Im a_p]``.
    """
    cos, k0, sin = _real_blocks(a.shape[0])
    lo, hi = a[cos], a[::-1][cos]  # a_p and a_{m-1-p}
    y = np.empty(a.shape, dtype=np.complex128)
    y[cos] = (lo + hi) / _SQRT2
    y[k0] = a[k0]
    y[sin] = (lo - hi) * (1j / _SQRT2)
    return y


def _from_real(y: np.ndarray) -> np.ndarray:
    """``T^H y`` along the first axis; conjugate-symmetric when y is real."""
    cos, k0, sin = _real_blocks(y.shape[0])
    c, s = y[cos] / _SQRT2, y[sin] * (1j / _SQRT2)
    a = np.empty(y.shape, dtype=np.complex128)
    a[cos] = c - s
    a[k0] = y[k0]
    a[sin] = (c + s)[::-1]
    return a


def _real_characters(points: np.ndarray, freqs: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The real rows ``(L T^H)^T`` over the points, for a symmetric ``freqs``.

    Returns a C-contiguous (len(freqs), len(points)) array of ``dtype``: row
    p < h holds ``sqrt2 cos 2 pi <k_p, x>``, row m-h+p the matching ``sqrt2
    sin``, and row h (k = 0, m odd) ones.  The first h frequencies are those
    whose first nonzero coordinate is negative, so each one's parent (last
    nonzero coordinate moved one step towards 0) is among them or is k = 0.
    A row pair whose parent pair is present is that pair rotated by the tone
    of coordinate j, in place; a parent k = 0 gives the scaled tone itself,
    and the rest get ``cos``/``sin`` of their phases.  Phases, ``cos`` and
    ``sin`` are float64 and the two tone tables are cast to ``dtype`` once,
    so the recursion runs in ``dtype`` and no float64 matrix is formed.
    """
    m, n = len(freqs), points.shape[0]
    cos, k0, sin = _real_blocks(m)
    out = np.empty((m, n), dtype=dtype)
    out[k0] = 1.0
    cos_rows, sin_rows = out[cos], out[sin]
    phase = 2.0 * np.pi * np.ascontiguousarray(points.T)
    cos_t = np.cos(phase).astype(dtype, copy=False)
    sin_t = np.sin(phase, out=phase).astype(dtype, copy=False)
    tmp = np.empty(n, dtype=dtype)
    keys = [tuple(k) for k in freqs[cos].tolist()]
    row_of = {k: p for p, k in enumerate(keys)}
    # level by level in |k|_1, so every parent pair is filled before its children
    for p in np.argsort(np.abs(freqs[cos]).sum(axis=1), kind="stable").tolist():
        k = keys[p]
        j = max(i for i, c in enumerate(k) if c)
        step = 1 if k[j] > 0 else -1
        parent = k[:j] + (k[j] - step,) + k[j + 1 :]
        c, s = cos_rows[p], sin_rows[p]
        q = row_of.get(parent)
        if q is not None:
            # (pc + i ps) (cos + i step sin), one real product at a time
            pc, ps = cos_rows[q], sin_rows[q]
            np.multiply(pc, cos_t[j], out=c)
            np.multiply(ps, sin_t[j], out=tmp)
            (np.subtract if step > 0 else np.add)(c, tmp, out=c)
            np.multiply(ps, cos_t[j], out=s)
            np.multiply(pc, sin_t[j], out=tmp)
            (np.add if step > 0 else np.subtract)(s, tmp, out=s)
        elif not any(parent):
            np.multiply(cos_t[j], _SQRT2, out=c)
            np.multiply(sin_t[j], step * _SQRT2, out=s)
        else:
            theta = 2.0 * np.pi * (points @ freqs[p])
            np.multiply(np.cos(theta), _SQRT2, out=c)
            np.multiply(np.sin(theta), _SQRT2, out=s)
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

    def real_adjoint(self, values: np.ndarray) -> np.ndarray:
        """``T L* f`` for real values f on a symmetric set, a real vector."""
        self._check_symmetric()
        return _to_real(self.adjoint(self._check_values(values, np.float64))).real

    def real_normal(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> T L* W L T^H x`` on real coordinates of a symmetric set.

        The normal operator in the real basis, real symmetric PSD.  Here it
        goes through the complex ``normal``; the operators override it.
        """
        self._check_symmetric()
        normal = self.normal(weights)
        return lambda x: _to_real(
            normal(_from_real(self._check_coeffs(x, np.float64)))).real

    def dense_matrix(self) -> np.ndarray:
        """Materialize L (row_count x |I|); intended for small instances."""
        raise NotImplementedError

    def _check_weights(self, weights: np.ndarray) -> np.ndarray:
        return _weight_vector(weights, self.row_count, f"{self.row_count} rows")

    def _check_symmetric(self) -> None:
        if not self.index_set.symmetric:
            raise ValueError("the real basis needs a symmetric index set (I = -I)")

    def _check_coeffs(self, coeffs: np.ndarray, dtype=np.complex128) -> np.ndarray:
        a = np.asarray(coeffs)
        if a.shape != (len(self.index_set),):
            raise ValueError(
                f"coefficient vector must have length {len(self.index_set)}, "
                f"got shape {a.shape}"
            )
        return a.astype(dtype, copy=False, casting="same_kind")

    def _check_values(self, values: np.ndarray, dtype=np.complex128) -> np.ndarray:
        f = np.asarray(values)
        if f.shape != (self.row_count,):
            raise ValueError(
                f"value vector must have length {self.row_count}, got shape {f.shape}"
            )
        return f.astype(dtype, copy=False, casting="same_kind")


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
            rows = _index_list(rows, lat.size, "row mask", "M")
        self.rows = rows

    @property
    def row_count(self) -> int:
        return self.lattice.size if self.rows is None else len(self.rows)

    def masked(self, rows: np.ndarray) -> "LatticeOperator":
        if self.rows is not None:
            rows = self.rows[_index_list(rows, len(self.rows), "row mask", "N")]
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

    def _spread(self, v: np.ndarray) -> np.ndarray:
        """The sum of a real row vector over each of the M lattice points."""
        if self.rows is None:
            return v
        return np.bincount(self.rows, v, minlength=self.lattice.size)

    def _weight_spectrum(self, weights: np.ndarray) -> np.ndarray:
        """``char[t] = sum_i w_i exp(2 pi i t j_i / M)``, from the point sums."""
        return self.lattice.size * np.fft.ifft(self._spread(self._check_weights(weights)))

    def gram(self, weights: np.ndarray) -> np.ndarray:
        """The complex Gram ``L* W L``: entry (k, l) is ``char[r_l - r_k]``."""
        M, r = self.lattice.size, self._res
        n = len(r)
        char = self._weight_spectrum(weights)
        G = np.empty((n, n), dtype=np.complex128)
        for lo in range(0, n, _GRAM_BLOCK):
            hi = min(lo + _GRAM_BLOCK, n)
            G[lo:hi] = char[(r[None, :] - r[lo:hi, None]) % M]
        return G

    def _real_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The real basis on the lattice: residues rho and factors sigma.

        Real coordinate q is the function ``Re(sigma_q exp(2 pi i rho_q j /
        M))`` of the lattice point j: rho_q is the residue of the cos-block
        frequency of q's pair (0 for k = 0) and sigma_q is sqrt2, 1 or -i
        sqrt2 by block of ``_real_blocks``.  Every real-basis method of the
        lattice reads the basis from here.
        """
        m = len(self._res)
        cos, k0, sin = _real_blocks(m)
        rho = np.zeros(m, dtype=np.int64)
        rho[cos] = rho[sin] = self._res[cos]
        sigma = np.empty(m, dtype=np.complex128)
        sigma[cos], sigma[k0], sigma[sin] = _SQRT2, 1.0, -1j * _SQRT2
        return rho, sigma

    def _real_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The map read on a Hermitian half spectrum (slots 0..M//2).

        Coordinate q sits at slot rho_q with factor c_q = sigma_q, or at slot
        M - rho_q with c_q = conj(sigma_q) when 2 rho_q > M (the same real
        function).  Returns each coordinate's index into the half spectrum
        viewed as float64 ``[Re 0, Im 0, Re 1, Im 1, ...]``, and its gather
        and scatter scales.  The gather reads ``Re(conj(c_q) F[slot])`` off
        the half spectrum F of point sums.  The scatter puts half of ``c_q
        x_q`` at its slot, as ``irfft`` adds the mirror, or all of it at a
        self-mirrored slot (0, or M/2 when M is even), whose imaginary part
        ``irfft`` ignores.
        """
        M = self.lattice.size
        rho, sigma = self._real_basis()
        mirror = 2 * rho > M
        slot = np.where(mirror, M - rho, rho)
        c = np.where(mirror, sigma.conj(), sigma)
        idx = 2 * slot + (c.imag != 0)
        gather = c.real + c.imag  # one of the two is 0
        scatter = np.where((slot == 0) | (2 * slot == M), gather, gather / 2)
        return idx, gather, scatter

    def real_gram(self, weights: np.ndarray) -> np.ndarray:
        """``T L* W L T^H``, the matrix of ``real_normal``, from the map.

        Entry (q, q') sums two mapped tones' product over the points: ``Re(s
        s' char[rho + rho'] + s conj(s') char[rho - rho']) / 2`` for s =
        sigma_q, s' = sigma_q'.  On each block of the h x h pair grid both
        products of factors are one of +-2 and +-2i, so a block sums one
        signed part of ``char`` at each of two index grids.  The k = 0 row is
        ``Re(sigma char[rho])``.  ``char`` is made exactly Hermitian first,
        so the result is exactly symmetric.
        """
        self._check_symmetric()
        M = self.lattice.size
        rho, sigma = self._real_basis()
        char = self._weight_spectrum(weights)
        char[: M // 2 : -1] = char[1 : (M + 1) // 2].conj()  # char[-t] = conj char[t]
        m = len(rho)
        cos, k0, sin = _real_blocks(m)
        r = rho[cos]
        twice = np.concatenate((char, char))  # char[t mod M] for 0 <= t < 2M
        total, diff = r[:, None] + r, (r + M)[:, None] - r
        G = np.empty((m, m))
        for a, b in ((cos, cos), (cos, sin), (sin, sin)) if len(r) else ():  # m <= 1: no pairs
            s, t = sigma[a.start], sigma[b.start]
            u, v = np.round(s * t / 2), np.round(s * t.conjugate() / 2)  # exactly +-1 or +-i
            np.add((u * twice).real[total], (v * twice).real[diff], out=G[a, b])
        G[sin, cos] = G[cos, sin].T
        if m % 2:  # k = 0, the one position of its block
            z = k0.start
            G[z] = G[:, z] = (sigma * char[rho]).real
        return G

    def real_rows(self, scale: np.ndarray) -> tuple[Callable, Callable]:
        """``row(i)`` and ``products(w, g)`` of the rows of ``diag(scale) L T^H``.

        ``row(i)`` is the map at row i's point, from one table of ``exp(2 pi
        i t / M)``.  ``products(w, g)`` returns the products of all rows with
        real w and g: ``real_normal``'s scatter of both, one batched
        ``irfft`` and a gather at the rows.  It returns views of its own
        buffer, which the next call overwrites.
        """
        self._check_symmetric()
        scale = self._check_values(scale, np.float64)
        M = self.lattice.size
        j = np.arange(M) if self.rows is None else self.rows
        rho, sigma = self._real_basis()
        # Re(sigma t) for sigma real or imaginary: one part of t, signed
        part, coef = sigma.imag != 0, sigma.real - sigma.imag
        table = np.exp((2j * np.pi / M) * np.arange(M)).view(np.float64)
        idx, _, scatter = self._real_slots()
        width = M // 2 + 1
        targets = np.concatenate((idx, idx + 2 * width))  # w's half spectrum, then g's
        half = np.empty((2, width), dtype=np.complex128)
        flat = half.reshape(-1).view(np.float64)
        spread, values = np.empty((2, len(idx))), np.empty((2, M))
        out = np.empty((2, len(j)))

        def row(i):
            return table[2 * (rho * j[i] % M) + part] * (coef * scale[i])

        def products(w, g):
            np.multiply(w, scatter, out=spread[0])
            np.multiply(g, scatter, out=spread[1])
            flat.fill(0.0)
            np.add.at(flat, targets, spread.reshape(-1))  # colliding residues accumulate
            np.fft.irfft(half, M, norm="forward", out=values)
            np.multiply(np.take(values, j, axis=1, out=out), scale, out=out)
            return out[0], out[1]

        return row, products

    def real_adjoint(self, values: np.ndarray) -> np.ndarray:
        """``T L* f`` from one ``rfft``: the point sums' half spectrum, gathered."""
        self._check_symmetric()
        f = self._check_values(values, np.float64)
        idx, gather, _ = self._real_slots()
        flat = np.fft.rfft(self._spread(f)).view(np.float64)
        return flat[idx] * gather

    def real_normal(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``normal`` in the real basis, on Hermitian half spectra.

        One call scatters x into a half spectrum (``_real_slots``),
        ``irfft``s it to the values on the lattice, multiplies by the point
        weights h, ``rfft``s back and gathers.  Holds h (the weights
        themselves on a full lattice), a complex half spectrum and a real
        work vector; building it runs no transform.  Writes into its own
        buffers and is not reentrant.
        """
        self._check_symmetric()
        h = self._spread(self._check_weights(weights))
        M = self.lattice.size
        idx, gather, scatter = self._real_slots()
        half = np.empty(M // 2 + 1, dtype=np.complex128)
        flat = half.view(np.float64)
        spec = np.empty(M)

        def apply(coeffs: np.ndarray) -> np.ndarray:
            x = self._check_coeffs(coeffs, np.float64)
            flat.fill(0.0)
            np.add.at(flat, idx, x * scatter)  # colliding residues accumulate
            np.fft.irfft(half, M, norm="forward", out=spec)
            np.multiply(spec, h, out=spec)
            np.fft.rfft(spec, out=half)
            return flat[idx] * gather

        return apply

    def dense_matrix(self) -> np.ndarray:
        return DenseOperator(self.lattice.points(self.rows), self.index_set).dense_matrix()


class DenseOperator(SystemOperator):
    """Explicit-matrix operator for arbitrary point sets.

    On a symmetric index set the matrix is stored real, as ``(L T^H)^T``
    (|I| x N of ``dtype``, float64 by default), and complex products go
    through the real basis; otherwise it is the complex ``L^T``, a view of
    ``_characters``: one ``exp`` per entry, with complex temporaries of the
    same size.  No pipeline run builds that one, as every hyperbolic cross
    is symmetric.  float32 storage, which only the real matrix takes, halves
    the bytes built, held and read; every method casts its vectors to the
    storage type and back at its boundary, so float64 callers get float64
    results and the matrix is never promoted to a full-size float64 copy.
    """

    kind = "dense"

    def __init__(
        self,
        points: np.ndarray,
        index_set: IndexSet,
        rows: np.ndarray | None = None,
        dtype=np.float64,
    ):
        pts = np.atleast_2d(_admit(points, np.float64, "points"))
        if pts.shape[1] != index_set.dimension:
            raise ValueError(
                f"points must have {index_set.dimension} columns, got {pts.shape[1]}"
            )
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dense storage must be float32 or float64, got {dtype}")
        if dtype != np.float64 and not index_set.symmetric:
            raise ValueError("float32 storage needs a symmetric index set (I = -I)")
        if rows is not None:
            pts = _frozen(pts[_index_list(rows, len(pts), "row mask", "N")])
        self.points = pts
        self.index_set = index_set
        self.dtype = dtype
        self._real = index_set.symmetric
        freqs = index_set.frequencies
        # (L T^H)^T when real, else L^T
        self._rows = (_real_characters(pts, freqs, dtype) if self._real
                      else _characters(pts, freqs).T)

    @property
    def row_count(self) -> int:
        return self.points.shape[0]

    def masked(self, rows: np.ndarray) -> "DenseOperator":
        return DenseOperator(self.points, self.index_set, rows, self.dtype)

    def _stored(self, v: np.ndarray) -> np.ndarray:
        """A real vector or stack in the storage type, for a product with the matrix."""
        return v.astype(self.dtype, copy=False)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        a = self._check_coeffs(coeffs)
        if not self._real:
            return a @ self._rows
        y = _to_real(a)  # L a = (L T^H)(T a): real and imaginary parts apart
        values = np.empty(self.row_count, dtype=np.complex128)
        values.real, values.imag = self._stored(np.stack((y.real, y.imag))) @ self._rows
        return values

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        f = self._check_values(values)
        if not self._real:
            return (self._rows @ f.conj()).conj()
        # L* f = T^H (L T^H)^T f
        c = (self._rows @ self._stored(np.column_stack((f.real, f.imag)))).astype(
            np.float64, copy=False)
        return _from_real(c[:, 0] + 1j * c[:, 1])

    def real_adjoint(self, values: np.ndarray) -> np.ndarray:
        self._check_symmetric()
        f = self._stored(self._check_values(values, np.float64))
        return (self._rows @ f).astype(np.float64, copy=False)

    def real_normal(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> B^T W B x`` with B = L T^H real: two real matrix-vector products.

        Both products run in the storage type, and the weighting writes
        into the first one's result, so an apply holds one N-vector.
        """
        self._check_symmetric()
        w = self._check_weights(weights)
        rows = self._rows

        def apply(coeffs: np.ndarray) -> np.ndarray:
            t = self._stored(self._check_coeffs(coeffs, np.float64)) @ rows
            np.multiply(t, w, out=t)
            return (rows @ t).astype(np.float64, copy=False)

        return apply

    def dense_matrix(self) -> np.ndarray:
        # L^T = T^T (L T^H)^T = conj(T^H (L T^H)^T) for the real storage
        return (_from_real(self._rows).conj() if self._real else self._rows).T
