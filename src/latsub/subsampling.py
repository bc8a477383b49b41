"""Two-stage point reduction with stability certificates.

Stage 1 draws n points i.i.d. (with duplicates) from a weighted sample plan
under a Christoffel-type discrete density and reweights them by
``w_i / (n * rho_i)``, preserving the two-sided L2 stability of the plan up
to factors [1/2, 3/2] with high probability at logarithmic oversampling.
On the torus every character has unit modulus, so that density is exactly
the plan's normalized quadrature weights, ``rho_i = w_i / sum_j w_j``.

Stage 2 reduces further to linear oversampling ``<= ceil(b * |I|)`` with the
deterministic barrier-potential greedy of spectral (frame) sparsification:
a weighted variant that certifies two-sided bounds, and a plain (unweighted)
variant that certifies the lower bound only.  Both stage-2 variants are
certified a posteriori by dense eigensolves of the subsampled |I| x |I| Gram
matrix (bounded by ``mz.DENSE_EIG_CAP``); a run that cannot meet its
certificate raises instead of returning a bad selection.  Stage 1 has no
certificate of its own: ``bss_subsample`` checks the draw's MZ window before
sparsifying, and ``plain_bss_subsample`` certifies only its output.

The plain greedy's only per-row step is the product of all rows with the
resolvent's two new vectors.  On a lattice-backed stage-1 draw over a
symmetric index set (I = -I, e.g. a hyperbolic cross) every row
``sqrt(rw_i) exp(2 pi i r_k j_i / M)`` is conjugate-symmetric, so the greedy
runs in the real orthonormal basis ``[sqrt2 Re v_p (p < h), v_0,
sqrt2 Im v_p (p < h)]`` of ``fourier._real_blocks``, pairing lex position
p with m-1-p.  Rows, resolvent
and scores are then real; a row's cos and sin come from one table of
``exp(2 pi i t / M)``, both products pack into one complex length-M DFT
gathered at the drawn rows, and the real symmetric resolvent is updated by
BLAS ``dsymv``/``dsyr``, so a step costs O(M log M + |I|^2) with no
N x |I| row matrix held.  The DFT is one ``np.fft.fft`` at M, whatever M
is (numpy's FFT takes prime lengths too).  Any other input uses the dense
complex rows at O(N |I|) per step with ``zhemv``/``zher``.  Both share one
loop.

Randomness policy: only the stage-1 draw is random.  Its generator is
``PCG64(SeedSequence([seed, _STREAM_DRAW]))``; a uniform density is drawn
by one ``integers`` call on it and any other by inverse CDF (``searchsorted``
on ``cumsum(rho)``), so identical seeds give bit-identical selections.  The
barrier greedy is fully deterministic: among the gains within a relative
``64 eps`` of the best it takes the lowest row position, so the scorers,
whose arithmetic differs, agree wherever gains tie up to rounding.
``plain_bss_subsample`` passes the exact row norms ``rw_i |I|``, so on a
uniform draw every row ties at the first step and the first pick is
position 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fourier import _from_real, _real_blocks
from .index_sets import IndexSet
from .lattice import SamplePlan, residues
from .mz import SpectralBounds, mz_constants

__all__ = [
    "DensityWeights",
    "SubsampleSelection",
    "density_weights",
    "random_subsample_size",
    "random_subsample",
    "kappa",
    "bss_subsample",
    "plain_bss_subsample",
    "bss_select_weighted",
    "bss_select_plain",
    "SpectralCertificateError",
]

_STREAM_DRAW = 11  # SeedSequence tag for the stage-1 categorical draw

#: Cap on N * |I| entries of a dense stage-1 row matrix: the weighted greedy
#: and the plain greedy on draws without a lattice build one.
BSS_ENTRY_CAP = 1 << 24

#: Relative gap below the best gain within which the plain greedy treats gains
#: as tied and takes the lowest position, so that rounding noise between
#: arithmetically equal scorers cannot decide a selection.
_NEAR_TIE = 64 * np.finfo(np.float64).eps


class SpectralCertificateError(RuntimeError):
    """A subsampling result failed its a-posteriori spectral certificate."""


@dataclass(frozen=True, eq=False)
class DensityWeights:
    """A probability vector over the points of a parent plan."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 1:
            raise ValueError("rho must be one-dimensional")
        if np.any(rho < 0):
            raise ValueError("density weights must be nonnegative")
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError(f"density must sum to 1, got {rho.sum()!r}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def __len__(self) -> int:
        return len(self.rho)


@dataclass(frozen=True, eq=False)
class SubsampleSelection:
    """An ordered index list into a parent plan plus per-point reweights.

    ``stage`` is one of ``"random"``, ``"bss_weighted"``, ``"plain_bss"``.
    For the random stage ``reweights = w_i / (n * rho_i)``; the weighted BSS
    stage multiplies those by its nonnegative scalars ``s_i`` (kept in
    ``bss_weights``); the plain stage carries ``w_i / rho_i`` scaled by
    ``1/|I|``.  Duplicate indices are permitted and kept.
    """

    parent: SamplePlan
    indices: np.ndarray
    reweights: np.ndarray
    stage: str
    seed: int | None = None
    draw_count: int | None = None
    bss_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        rw = np.asarray(self.reweights, dtype=np.float64)
        if idx.shape != rw.shape or idx.ndim != 1:
            raise ValueError("indices and reweights must be aligned 1-d arrays")
        if len(idx) and (idx.min() < 0 or idx.max() >= len(self.parent)):
            raise ValueError("selection indices out of range of the parent plan")
        if np.any(rw < 0):
            raise ValueError("reweights must be nonnegative")
        idx.flags.writeable = False
        rw.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "reweights", rw)
        if self.bss_weights is not None:
            s = np.asarray(self.bss_weights, dtype=np.float64)
            s.flags.writeable = False
            object.__setattr__(self, "bss_weights", s)

    def __len__(self) -> int:
        return len(self.indices)

    def as_plan(self) -> SamplePlan:
        """The selection as a standalone SamplePlan (lattice link preserved)."""
        parent = self.parent
        rows = None
        if parent.lattice is not None:
            rows = (
                self.indices
                if parent.lattice_rows is None
                else parent.lattice_rows[self.indices]
            )
        return SamplePlan(
            points=parent.points[self.indices],
            weights=self.reweights,
            lattice=parent.lattice,
            lattice_rows=rows,
        )


def density_weights(plan: SamplePlan) -> DensityWeights:
    """The stage-1 sampling density ``rho_i = w_i / sum_j w_j`` over ``plan``.

    The general construction mixes three densities in equal parts: the
    discrete Christoffel density of the reconstruction space I, an
    eigenvalue-weighted density of the tail frequencies ``I_MZ \\ I``, and
    the plan's quadrature density.  On the torus every character has unit
    modulus, so the Christoffel and tail functions are constant in x and each
    of the three terms equals ``w_i / sum_j w_j``; the mixture is therefore
    that density itself, whatever I, I_MZ and the smoothness order are.
    Uniform weights give ``rho_i = 1/M``.
    """
    w = plan.weights
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("parent plan has all-zero weights")
    return DensityWeights(rho=w / wsum)


def random_subsample_size(
    A: float, B: float, C: float, card_I: int, t: float
) -> int:
    """Sufficient i.i.d. draw count ``ceil((12 B / (A C)) |I| (ln|I| + t))``.

    ``log`` is the natural logarithm throughout (tail bounds compose with
    ``exp(-t)``).  With C = 1/3 this is the ``ceil(36 (B/A) |I| (ln|I|+t))``
    form used by the recovery guarantees.
    """
    if A <= 0:
        raise ValueError("lower MZ constant A must be positive")
    if not 0 < C <= 1:
        raise ValueError(f"C must lie in (0, 1], got {C}")
    if card_I < 1:
        raise ValueError("card_I must be >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    return math.ceil((12.0 * B / (A * C)) * card_I * (math.log(card_I) + t))


def random_subsample(
    plan: SamplePlan, rho: DensityWeights, n: int, seed: int
) -> SubsampleSelection:
    """Draw ``n`` points i.i.d. from the plan under ``rho`` (with duplicates).

    Each drawn point i receives the reweight ``w_i / (n * rho_i)``, which
    makes the subsampled discrete square sum an unbiased estimator of the
    plan's weighted square sum for every fixed function.

    A uniform density (every full-lattice plan) is drawn by one
    ``rng.integers(0, N, n)``.  Any other density is drawn by inverse CDF:
    ``searchsorted`` of ``rng.random(n)``, scaled to the CDF's last entry, on
    ``cumsum(rho)``; a zero-probability point spans an empty interval of the
    CDF, so it is never drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(rho) != len(plan):
        raise ValueError("density length does not match the plan")
    p = rho.rho
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _STREAM_DRAW]))
    )
    if p.min() == p.max():
        J = rng.integers(0, len(plan), size=n)
    else:
        cdf = np.cumsum(p)
        # u < cdf[-1] strictly, so the first entry above u is a point of
        # positive mass even when the last points carry none
        J = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    reweights = plan.weights[J] / (n * p[J])
    return SubsampleSelection(
        parent=plan,
        indices=J,
        reweights=reweights,
        stage="random",
        seed=seed,
        draw_count=n,
    )


def kappa(A: float, B: float) -> float:
    """Feasibility constant for weighted sparsification of a non-tight frame.

    ``kappa = 3B/(2A) + 1/2 + sqrt((3B/(2A) + 1/2)^2 - 1)``; equals
    ``2 + sqrt(3)`` exactly when A = B and grows with B/A.
    """
    if not (0 < A <= B):
        raise ValueError(f"need B >= A > 0, got A={A}, B={B}")
    h = 1.5 * B / A + 0.5
    return h + math.sqrt(h * h - 1.0)


# ---------------------------------------------------------------------------
# Barrier-potential greedy selection on raw frame rows
# ---------------------------------------------------------------------------


def _barrier_greedy(
    norms: np.ndarray,
    m: int,
    b: float,
    row: Callable[[int], np.ndarray],
    cross: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The plain lower-barrier greedy over N rows of length m.

    ``norms[i]`` is ``|v_i|^2``, ``row(i)`` returns row v_i, and
    ``cross(w, g)`` returns ``(conj(rows) @ w, conj(rows) @ g)`` over all N
    rows; the scorers differ only in those three.  Each step takes the
    lowest position among the gains within ``_NEAR_TIE`` (relative) of the
    best, so rounding noise does not decide between tied rows.  The resolvent
    ``(S - l I)^{-1}`` is Hermitian (real symmetric for real rows); it is
    kept in its upper triangle and updated in place by BLAS
    ``zhemv``/``zher``, or ``dsymv``/``dsyr`` when the rows are real.
    """
    from scipy.linalg.blas import dsymv, dsyr, zhemv, zher  # 0.3 s to import

    if b <= 1.0 + 1.0 / m:
        raise ValueError(f"b must exceed 1 + 1/|I| = {1 + 1 / m}, got {b}")
    active = norms > 0
    n_active = int(active.sum())
    q = min(int(math.ceil(b * m)), n_active)
    tr_total = norms[active].sum()
    # barrier depth: a quarter of the selection's fair-share eigenvalue
    level = 0.25 * tr_total * q / (max(n_active, 1) * m)
    if level <= 0:
        raise ValueError("input rows carry no mass")

    dtype = row(0).dtype
    hemv, her = (dsymv, dsyr) if dtype == np.float64 else (zhemv, zher)
    # (S - l I)^{-1} at S = 0; Fortran order so BLAS updates it in place
    resolvent = np.asfortranarray(np.eye(m, dtype=dtype) / level)
    q1 = norms / level  # row scores  v^H (S - l I)^{-1} v
    q2 = norms / level**2  # and  v^H (S - l I)^{-2} v
    blocked = ~active
    selected = []
    for _ in range(q):
        gain = q2 / (1.0 + q1)  # potential decrease when adding the row
        gain[blocked] = -np.inf
        top = gain.max()
        i = int(np.argmax(gain >= top - _NEAR_TIE * abs(top)))  # lowest near-tie
        blocked[i] = True
        selected.append(i)
        w = hemv(1.0, resolvent, row(i))
        g = hemv(1.0, resolvent, w)
        beta = 1.0 / (1.0 + q1[i])
        a1, a2 = cross(w, g)
        abs1 = np.abs(a1) ** 2
        q1 = q1 - beta * abs1
        q2 = (
            q2
            - 2.0 * beta * np.real(a2 * a1.conj())
            + beta**2 * float(np.real(np.vdot(w, w))) * abs1
        )
        her(-beta, w, a=resolvent, overwrite_a=True)
    return np.array(selected, dtype=np.int64)


def bss_select_plain(rows: np.ndarray, b: float) -> np.ndarray:
    """Unweighted subset selection of at most ``ceil(b * m)`` rows.

    Lower-barrier greedy: each step adds the unused row with the largest
    decrease of the barrier potential ``tr (S - l I)^{-1}``, which pushes the
    whole lower end of the selected spectrum up, not just the minimum.  The
    barrier level l is fixed a fraction of the fair-share eigenvalue below
    zero, which keeps the resolvent well conditioned and lets both score
    vectors update by rank-1 (Sherman-Morrison) algebra instead of a fresh
    eigendecomposition.  Each step costs O(N m) for the dense product
    ``conj(rows) @ [w, g]`` plus O(m^2) for the in-place resolvent update;
    ``plain_bss_subsample`` replaces that product by a lattice FFT,
    O(M log M), when its draw has a lattice parent and I = -I.

    Ties go to the lowest row position, and so do near-ties: gains within a
    relative ``64 eps`` of the best.  The row norms are computed here as
    ``|row|^2``, so rows of equal exact norm can differ by rounding; such
    rows tie up to that tolerance.  ``plain_bss_subsample`` passes exact
    norms instead.

    Returns the selected row positions in selection order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    norms = np.einsum("ij,ij->i", rows, rows.conj()).real
    return _barrier_greedy(norms, rows.shape[1], b, *_dense_scorer(rows))


def bss_select_weighted(
    rows: np.ndarray, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sparsification: at most ``ceil(b * m)`` rows with scalars t_i.

    Classical two-barrier greedy: an upper and a lower barrier advance by
    fixed increments each step, and a row plus weight is chosen that keeps
    both barrier potentials from growing.  The upper increment is relaxed
    (and the lower shrunk) adaptively when no row qualifies, which extends
    the scheme to non-tight input frames; the caller certifies the final
    spectrum, so any internal schedule that completes is admissible.
    Requires b > 1, where the upper barrier's step is positive.

    Returns (row positions, weights) over the full input (zeros where
    unselected rows); the number of positive weights is at most ceil(b*m).
    """
    if b <= 1.0:
        raise ValueError(f"b must exceed 1, got {b}")
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    N, m = rows.shape
    q = int(math.ceil(b * m))
    t = np.zeros(N)
    if q >= N:
        t[:] = 1.0
        return np.arange(N, dtype=np.int64), t

    frame = rows.conj().T @ rows
    lam_hi = float(np.linalg.eigvalsh(frame)[-1])
    if lam_hi <= 0:
        raise ValueError("input rows span nothing")
    scaled = rows / math.sqrt(lam_hi)

    sqrt_b = math.sqrt(b)
    eps_lower = 1.0 / sqrt_b
    eps_upper = (sqrt_b - 1.0) / (b + sqrt_b)
    d_lower0 = 1.0
    d_upper0 = (sqrt_b + 1.0) / (sqrt_b - 1.0)
    lower = -m / eps_lower
    upper = m / eps_upper

    S = np.zeros((m, m), dtype=np.complex128)
    for step in range(q):
        mu, V = np.linalg.eigh(S)
        proj = np.abs(scaled.conj() @ V) ** 2
        placed = False
        d_lower = d_lower0
        for _ in range(12):  # shrink lower increment
            for grow in range(14):  # relax upper increment
                d_upper = d_upper0 * (2.0**grow)
                up, lp = upper + d_upper, lower + d_lower
                # the feasibility rule keeps the lower potential at or below
                # its start 1/sqrt(b), so mu[0] - lower >= sqrt(b) > 1 >= d_lower
                assert lp < mu[0], "lower barrier reached the spectrum"
                du1 = 1.0 / (up - mu)
                dl1 = 1.0 / (mu - lp)
                d_phi_u = np.sum(1.0 / (upper - mu)) - np.sum(du1)
                d_phi_l = np.sum(dl1) - np.sum(1.0 / (mu - lower))
                u_val = proj @ (du1 * du1) / d_phi_u + proj @ du1
                l_val = proj @ (dl1 * dl1) / d_phi_l - proj @ dl1
                feasible = (l_val >= u_val) & (u_val > 0)
                if np.any(feasible):
                    slack = np.where(feasible, l_val - u_val, -np.inf)
                    i = int(np.argmax(slack))
                    w = 2.0 / (u_val[i] + l_val[i])
                    t[i] += w
                    S += w * np.outer(scaled[i], scaled[i].conj())
                    upper, lower = up, lp
                    placed = True
                    break
            if placed:
                break
            d_lower *= 0.5
        if not placed:
            raise SpectralCertificateError(
                f"barrier greedy stalled at step {step} of {q}"
            )
    chosen = np.nonzero(t)[0]
    return chosen, t


# ---------------------------------------------------------------------------
# Pipeline wrappers operating on stage-1 selections
# ---------------------------------------------------------------------------


def _stage1_rows(selection: SubsampleSelection, index_set: IndexSet) -> np.ndarray:
    """Weighted frame rows ``sqrt(reweight_i) * (eta_k(x^i))_k`` of a selection."""
    n, m = len(selection), len(index_set)
    if n * m > BSS_ENTRY_CAP:
        raise ValueError(
            f"stage-1 row matrix of {n}x{m} entries exceeds the dense cap "
            f"({BSS_ENTRY_CAP}); sparsification is a dense precomputation"
        )
    pts = selection.parent.points[selection.indices]
    rows = np.exp(2j * np.pi * (pts @ index_set.frequencies.T))
    rows *= np.sqrt(selection.reweights)[:, None]
    return rows


def _dense_scorer(rows: np.ndarray):
    """``row(i)`` and ``cross(w, g)`` of the plain greedy on an explicit matrix."""
    conj_rows = rows.conj()

    def cross(w, g):
        c = conj_rows @ np.column_stack((w, g))
        return c[:, 0], c[:, 1]

    return rows.__getitem__, cross


def _lattice_scorer(selection: SubsampleSelection, index_set: IndexSet):
    """Real ``row(i)`` and ``cross(w, g)`` of the plain greedy on a lattice draw.

    Requires a symmetric index set (I = -I).  In lex order frequency p is
    the negative of frequency m-1-p, so stage-1 row ``v_i = sqrt(rw_i)
    exp(2 pi i r_k j_i / M)`` (lattice row j_i, residues ``r_k = <k, z> mod
    M``) is conjugate-symmetric, and in the real basis ``T`` of ``fourier``
    it is the real row ``T conj(v_i) = [sqrt2 Re v_p, v_h, sqrt2 Im v_p]``
    (blocks of ``fourier._real_blocks``).  ``row(i)`` reads its cos and sin
    from one table of ``exp(2 pi i t / M)`` at ``t = r_p j_i mod M``.  For
    real w, ``T conj(v_i) . w = conj(v_i) @ T^T w`` with ``T^T w = conj(T^H
    w)`` (``fourier._from_real``): the length-M DFT of ``T^T w`` scattered
    onto the residues, gathered at the j_i.  Both products are real, so the
    one DFT of ``T^T (w + i g)`` yields them as its real and imaginary parts
    (residues that collide add).  That DFT is one ``np.fft.fft`` at M,
    O(M log M) per call, and no N x |I| matrix is formed.
    """
    parent = selection.parent
    lat = parent.lattice
    M = lat.size
    j = (
        selection.indices
        if parent.lattice_rows is None
        else parent.lattice_rows[selection.indices]
    )
    m = len(index_set)
    cos, k0, sin = _real_blocks(m)
    res = residues(lat, index_set.frequencies)
    sqrt_rw = np.sqrt(selection.reweights)
    table = np.exp((2j * np.pi / M) * np.arange(M))
    half_res = res[cos]
    r2 = math.sqrt(2.0)
    spread = np.zeros(M, dtype=np.complex128)

    def row(i):
        t = table[half_res * j[i] % M]
        scale_i = r2 * sqrt_rw[i]
        v = np.empty(m)
        np.multiply(t.real, scale_i, out=v[cos])
        v[k0] = sqrt_rw[i]
        np.multiply(t.imag, scale_i, out=v[sin])
        return v

    def cross(w, g):
        x = _from_real(w - 1j * g).conj()  # T^T (w + i g), on the residues
        spread[:] = 0.0
        np.add.at(spread, res, x)  # colliding residues add
        f = np.fft.fft(spread)[j]
        f *= sqrt_rw
        return f.real, f.imag

    return row, cross


def _weighted_upper_cap(B: float, b: float, kap: float) -> float:
    sqrt_b = math.sqrt(b)
    return 1.5 * B * (sqrt_b + 1.0) ** 2 / ((sqrt_b - 1.0) * (sqrt_b - kap))


def _resolve_bounds(
    selection: SubsampleSelection, bounds: SpectralBounds | None
) -> SpectralBounds:
    if bounds is None:
        bounds = selection.parent.bounds
    if bounds is None:
        raise ValueError(
            "no spectral bounds supplied and the parent plan carries none"
        )
    return bounds


def bss_subsample(
    selection: SubsampleSelection,
    index_set: IndexSet,
    b: float,
    bounds: SpectralBounds | None = None,
) -> SubsampleSelection:
    """Weighted sparsification of a stage-1 selection with two-sided certificate.

    ``bounds`` are the (A, B) constants of the MZ system the stage-1 draw
    came from; the stage-1 rows are assumed to satisfy the inflated window
    [A/2, 3B/2], which is verified up front.  Requires ``b > kappa(A, B)^2``.
    The output reweights are ``s_i`` times the stage-1 reweights, rescaled so
    the subsampled system's lower constant is at least A/2 while its upper
    constant stays below ``(3/2) B (sqrt(b)+1)^2 / ((sqrt(b)-1)(sqrt(b)-kappa))``;
    both sides are certified by a dense eigensolve before returning.
    """
    if selection.stage != "random":
        raise ValueError("weighted sparsification expects a stage-1 selection")
    bounds = _resolve_bounds(selection, bounds)
    A, B = bounds.A, bounds.B
    kap = kappa(A, B)
    if b <= kap * kap:
        raise ValueError(
            f"b must exceed kappa^2 = {kap * kap:.6g} for bounds "
            f"(A={A:.6g}, B={B:.6g}); got b={b}"
        )
    m = len(index_set)
    rows = _stage1_rows(selection, index_set)

    stage1 = np.linalg.eigvalsh(rows.conj().T @ rows)
    slack = 1e-9
    if stage1[0] < 0.5 * A * (1 - slack) or stage1[-1] > 1.5 * B * (1 + slack):
        raise ValueError(
            "stage-1 selection violates its MZ window "
            f"[{0.5 * A:.6g}, {1.5 * B:.6g}]: got "
            f"[{stage1[0]:.6g}, {stage1[-1]:.6g}]"
        )

    chosen, t = bss_select_weighted(rows, b)
    weighted_gram = (rows.conj().T * t) @ rows
    lam = np.linalg.eigvalsh(0.5 * (weighted_gram + weighted_gram.conj().T))
    if lam[0] <= 0:
        raise SpectralCertificateError("sparsified frame lost full rank")
    upper_cap = _weighted_upper_cap(B, b, kap)
    # The greedy fixes the spectral ratio but not the absolute scale; keep the
    # raw scalars when they already satisfy both bounds (e.g. the trivial
    # keep-everything branch), otherwise normalize the lower constant to A/2.
    if lam[0] >= 0.5 * A and lam[-1] <= upper_cap:
        scale = 1.0
    else:
        scale = 0.5 * A / lam[0]
    s_all = scale * t
    lower, upper = scale * lam[0], scale * lam[-1]
    if len(chosen) > math.ceil(b * m) or lower < 0.5 * A * (1 - slack):
        raise SpectralCertificateError("weighted sparsification bound violated")
    if upper > upper_cap * (1 + slack):
        raise SpectralCertificateError(
            f"upper constant {upper:.6g} exceeds the certified cap {upper_cap:.6g}"
        )

    return SubsampleSelection(
        parent=selection.parent,
        indices=selection.indices[chosen],
        reweights=s_all[chosen] * selection.reweights[chosen],
        stage="bss_weighted",
        seed=selection.seed,
        draw_count=selection.draw_count,
        bss_weights=s_all[chosen],
    )


def plain_bss_subsample(
    selection: SubsampleSelection,
    index_set: IndexSet,
    b: float,
    bounds: SpectralBounds | None = None,
) -> SubsampleSelection:
    """Unweighted sparsification certifying the lower MZ constant only.

    Keeps at most ``ceil(b * |I|)`` of the stage-1 rows (no extra scalars)
    with reweights ``w_i / rho_i`` carrying a global ``1/|I|`` scaling.  The
    output's lower MZ constant is certified to be at least
    ``(b-1)^3 / (178 (b+1)^2) * A``; the upper constant is unconstrained.

    On a lattice-backed parent with a symmetric index set (I = -I, see
    ``IndexSet.symmetric``) the greedy runs in a real basis and scores
    rows through one lattice DFT, O(M log M + |I|^2) per
    step with no row matrix (so ``BSS_ENTRY_CAP`` does not apply); any other
    input uses the dense complex rows, O(N |I|) per step.  Both pass the
    exact row norms ``rw_i |I|`` and select alike unless rounding moves a
    gain across the near-tie tolerance.  The
    certificate is a dense Gram eigensolve (real on a symmetric set, see
    ``mz.mz_constants``), bounded by ``mz.DENSE_EIG_CAP``.
    """
    if selection.stage != "random":
        raise ValueError("plain sparsification expects a stage-1 selection")
    bounds = _resolve_bounds(selection, bounds)
    A = bounds.A
    m = len(index_set)
    if b <= 1.0 + 1.0 / m:
        raise ValueError(f"b must exceed 1 + 1/|I| = {1 + 1 / m:.6g}, got {b}")
    if selection.draw_count is None:
        raise ValueError("stage-1 selection must record its draw count")

    # |row_i|^2 = rw_i |I| exactly: every character has unit modulus
    norms = selection.reweights * m
    if selection.parent.lattice is not None and index_set.symmetric:
        scorer = _lattice_scorer(selection, index_set)
    else:
        scorer = _dense_scorer(_stage1_rows(selection, index_set))
    chosen = _barrier_greedy(norms, m, b, *scorer)
    n = selection.draw_count
    # w_i / rho_i = n * stage-1 reweight; the certified sum carries 1/|I|
    reweights = selection.reweights[chosen] * (n / m)

    result = SubsampleSelection(
        parent=selection.parent,
        indices=selection.indices[chosen],
        reweights=reweights,
        stage="plain_bss",
        seed=selection.seed,
        draw_count=selection.draw_count,
    )
    certified = (b - 1.0) ** 3 / (178.0 * (b + 1.0) ** 2) * A
    achieved = mz_constants(result.as_plan(), index_set).A
    if len(chosen) > math.ceil(b * m) or achieved < certified * (1 - 1e-9):
        raise SpectralCertificateError(
            f"plain sparsification lower bound violated: achieved "
            f"{achieved:.6g} < certified {certified:.6g}"
        )
    return result
