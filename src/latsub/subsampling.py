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
matrix, and ``mz.DENSE_CAP_BYTES`` bounds them: the plain variant's through
``mz.mz_constants``, the weighted variant's through its N x |I| stage-1 rows,
which hold at least |I|^2 entries whenever N >= |I|.  A run that cannot
meet its certificate raises instead of returning a bad selection.  Stage 1
has no certificate of its own: ``bss_subsample`` checks the draw's MZ
window before sparsifying, and ``plain_bss_subsample`` certifies only its
output.

The plain greedy's only per-row step is the product of all rows with the
resolvent's two new vectors.  A stage-1 draw repeats points, and a repeated
point repeats its row bit for bit, so ``plain_bss_subsample`` hands the
greedy each distinct row once and the greedy scores it once for all its
copies.  On a lattice-backed stage-1 draw over a symmetric index set (I =
-I, e.g. a hyperbolic cross) the draw's ``LatticeOperator`` supplies the
rows in the real basis of ``fourier`` (``real_rows``): rows, resolvent and
scores are real and both products come from one batched length-M
``irfft``.  Any other input uses the dense complex rows.  Both share one
loop.  The resolvent is held in full; each step's rank-1 update is queued
and the queue is applied as one rank-``_FLUSH`` matrix product every
``_FLUSH`` steps, so a step costs two |I| x |I| matrix-vector products,
O(M log M) on a lattice or O(N |I|) on dense rows, and O(N) score
updates, N the number of distinct rows.

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
from dataclasses import dataclass, replace

import numpy as np

from . import mz
from .fourier import LatticeOperator, _characters
from .index_sets import IndexSet, _index_list, _weight_vector
from .lattice import SamplePlan
from .mz import mz_constants

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

#: Relative gap below the best gain within which the plain greedy treats gains
#: as tied and takes the lowest position, so that rounding noise between
#: arithmetically equal scorers cannot decide a selection.
_NEAR_TIE = 64 * np.finfo(np.float64).eps

#: Steps of the plain greedy whose rank-1 resolvent updates are queued and
#: then applied as one matrix product (16, 32 and 64 time alike).
_FLUSH = 32


class SpectralCertificateError(RuntimeError):
    """A subsampling result failed its a-posteriori spectral certificate."""


@dataclass(frozen=True, eq=False)
class DensityWeights:
    """A probability vector over the points of a parent plan."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = _weight_vector(self.rho, None, "a one-dimensional density",
                             "density weights")
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError(f"density must sum to 1, got {rho.sum()!r}")
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
    ``1/|I|``.  Duplicate indices are permitted and kept.  Indices and
    weights are read-only copies the selection owns.
    """

    parent: SamplePlan
    indices: np.ndarray
    reweights: np.ndarray
    stage: str
    seed: int | None = None
    draw_count: int | None = None
    bss_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        idx = _index_list(self.indices, len(self.parent), "selection indices", "N")
        of = f"{len(idx)} indices: indices and weights must be aligned 1-d arrays"
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "reweights",
                           _weight_vector(self.reweights, len(idx), of, "reweights"))
        if self.bss_weights is not None:
            object.__setattr__(self, "bss_weights",
                               _weight_vector(self.bss_weights, len(idx), of, "bss_weights"))

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def lattice_rows(self) -> np.ndarray | None:
        """The lattice row of each selected point; None without a lattice."""
        parent = self.parent
        if parent.lattice is None:
            return None
        rows = parent.lattice_rows
        return self.indices if rows is None else rows[self.indices]

    def as_plan(self) -> SamplePlan:
        """The selection as a plan with the reweights; on a lattice, its rows."""
        lat = self.parent.lattice
        points = self.parent.points[self.indices] if lat is None else None
        return SamplePlan(points, weights=self.reweights, lattice=lat,
                          lattice_rows=self.lattice_rows)


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
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """The plain lower-barrier greedy over N rows of length m.

    ``norms[i]`` is ``|v_i|^2`` at position i.  ``groups[i]`` names the
    group of bitwise-equal rows that position i belongs to, labelled 0 to
    G-1 with none empty (by default each position is its own group); ``row(k)`` returns group k's row and
    ``cross(w, g)`` returns ``(conj(rows) @ w, conj(rows) @ g)`` over one row
    per group.  The scorers differ only in those two.  A group's scores are
    those of each of its copies, so the next unused position of a group
    stands for it, and the group leaves the race once every copy is taken.
    Each step takes the lowest position among the gains within
    ``_NEAR_TIE`` (relative) of the best, so rounding noise does not decide
    between tied rows, and the positions returned are those the greedy
    takes on the ungrouped rows.

    The resolvent ``(S - l I)^{-1}`` is Hermitian (real symmetric for real
    rows) and held in full, as it stood at the last flush.  A step's rank-1
    update ``-beta w w^H`` is queued as the factors w and ``beta conj(w)``,
    and ``R v`` is the held matrix times v less the queued terms; every
    ``_FLUSH`` steps the queue is applied as one rank-``_FLUSH`` matrix
    product.  A step therefore costs two products with the m x m resolvent
    and two with the queue, one ``cross``, and a fixed number of vector
    operations over the groups, in preallocated buffers.
    """
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

    if groups is None:
        groups = np.arange(len(norms))
    # each group's positions in ascending order, and the next unused one
    order = np.argsort(groups, kind="stable")
    count = np.bincount(groups)
    end = np.cumsum(count)
    head = end - count
    nxt = order[head]
    q1 = norms[nxt] / level  # row scores  v^H (S - l I)^{-1} v
    q2 = norms[nxt] / level**2  # and  v^H (S - l I)^{-2} v
    blocked = ~active[nxt]

    dtype = row(0).dtype
    resolvent = np.eye(m, dtype=dtype) / level  # (S - l I)^{-1} at S = 0
    # the pending updates -beta w w^H: w in ``queue``, beta conj(w) in ``scaled``
    queue = np.empty((_FLUSH, m), dtype=dtype)
    scaled = np.empty_like(queue)
    coef = np.empty(_FLUSH, dtype=dtype)
    pending = np.empty(m, dtype=dtype)
    g = np.empty(m, dtype=dtype)
    gain = np.empty(len(q1))
    abs1 = np.empty(len(q1))
    prod = np.empty(len(q1), dtype=dtype)
    queued = 0

    def resolve(v, out):
        """``out = R v``: the flushed resolvent, less the queued terms."""
        np.dot(resolvent, v, out=out)
        if queued:
            np.dot(scaled[:queued], v, out=coef[:queued])
            out -= np.dot(coef[:queued], queue[:queued], out=pending)

    selected = []
    for step in range(q):
        # potential decrease when adding the row
        np.divide(q2, np.add(1.0, q1, out=gain), out=gain)
        np.putmask(gain, blocked, -np.inf)
        k = int(gain.argmax())
        near = gain >= gain[k] - _NEAR_TIE * abs(gain[k])
        if np.count_nonzero(near) > 1:  # the lowest near-tied position wins
            near = np.flatnonzero(near)
            k = near[np.argmin(nxt[near])]
        selected.append(nxt[k])
        head[k] += 1
        if head[k] == end[k]:
            blocked[k] = True
        else:
            nxt[k] = order[head[k]]
        if step == q - 1:
            break
        w = queue[queued]
        resolve(row(k), w)
        resolve(w, g)
        beta = 1.0 / (1.0 + q1[k])
        a1, a2 = cross(w, g)
        np.square(np.abs(a1, out=abs1), out=abs1)
        np.multiply(a2, a1.conj(), out=prod)  # .conj() of a real array is itself
        q1 -= np.multiply(beta, abs1, out=gain)
        q2 -= np.multiply(2.0 * beta, prod.real, out=gain)
        q2 += np.multiply(beta**2 * float(np.real(np.vdot(w, w))), abs1, out=abs1)
        np.multiply(w.conj(), beta, out=scaled[queued])
        queued += 1
        if queued == _FLUSH:
            resolvent -= np.matmul(queue.T, scaled)
            queued = 0
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
    ``conj(rows) @ [w, g]`` plus two O(m^2) products with the resolvent,
    whose rank-1 updates are queued and applied as one matrix product every
    ``_FLUSH`` steps; ``plain_bss_subsample`` replaces the dense product by
    a lattice FFT, O(M log M), when its draw has a lattice parent and I =
    -I, and scores each distinct drawn row once.  Here every row is scored,
    repeated or not.

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

    conj_scaled = scaled.conj()
    S = np.zeros((m, m), dtype=np.complex128)
    for step in range(q):
        mu, V = np.linalg.eigh(S)
        proj = np.abs(conj_scaled @ V) ** 2
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
    if 16 * n * m > mz.DENSE_CAP_BYTES:
        raise ValueError(
            f"stage-1 row matrix of {n}x{m} entries ({16 * n * m} bytes) exceeds "
            f"the dense cap (mz.DENSE_CAP_BYTES = {mz.DENSE_CAP_BYTES}); "
            "sparsification is a dense precomputation"
        )
    rows = _characters(selection.as_plan().points, index_set.frequencies)
    rows *= np.sqrt(selection.reweights)[:, None]
    return rows


def _dense_scorer(rows: np.ndarray):
    """``row(i)`` and ``cross(w, g)`` of the plain greedy on an explicit matrix."""
    conj_rows = rows.conj()

    def cross(w, g):
        c = conj_rows @ np.column_stack((w, g))
        return c[:, 0], c[:, 1]

    return rows.__getitem__, cross


def _weighted_upper_cap(B: float, b: float, kap: float) -> float:
    sqrt_b = math.sqrt(b)
    return 1.5 * B * (sqrt_b + 1.0) ** 2 / ((sqrt_b - 1.0) * (sqrt_b - kap))


def bss_subsample(
    selection: SubsampleSelection,
    index_set: IndexSet,
    b: float,
) -> SubsampleSelection:
    """Weighted sparsification of a stage-1 selection with two-sided certificate.

    The parent plan's ``bounds`` are the (A, B) constants of the MZ system
    the stage-1 draw came from; the stage-1 rows are assumed to satisfy the
    inflated window [A/2, 3B/2], which is verified up front.  Requires ``b >
    kappa(A, B)^2``.
    The output reweights are ``s_i`` times the stage-1 reweights, rescaled so
    the subsampled system's lower constant is at least A/2 while its upper
    constant stays below ``(3/2) B (sqrt(b)+1)^2 / ((sqrt(b)-1)(sqrt(b)-kappa))``;
    both sides are certified by a dense eigensolve before returning.
    """
    if selection.stage != "random":
        raise ValueError("weighted sparsification expects a stage-1 selection")
    bounds = selection.parent.bounds
    if bounds is None:
        raise ValueError("no spectral bounds supplied: the parent plan carries none")
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
) -> SubsampleSelection:
    """Unweighted sparsification certifying the lower MZ constant only.

    Keeps at most ``ceil(b * |I|)`` of the stage-1 rows (no extra scalars)
    with reweights ``w_i / rho_i`` carrying a global ``1/|I|`` scaling.  The
    output's lower MZ constant is certified to be at least
    ``(b-1)^3 / (178 (b+1)^2) * A``; the upper constant is unconstrained.

    The greedy scores each distinct (index, reweight) pair of the draw once,
    for all of its copies, and returns the draw positions the ungrouped
    greedy would.  On a lattice-backed parent with a symmetric index set
    (I = -I, see ``IndexSet.symmetric``) it takes the distinct real rows
    from ``LatticeOperator.real_rows``, scored through one lattice FFT,
    O(M log M + |I|^2) per step with no row matrix (so the row cap,
    ``mz.DENSE_CAP_BYTES``, does not apply); any other input uses the dense
    complex rows of the distinct points, O(N |I|) per step for N of them,
    and the row cap bounds those.  Both pass the exact row norms ``rw_i
    |I|`` and select alike unless rounding moves a gain across the near-tie
    tolerance.  The certificate is a dense Gram eigensolve (real on a
    symmetric set, see ``mz.mz_constants``), bounded by
    ``mz.DENSE_CAP_BYTES``.
    """
    if selection.stage != "random":
        raise ValueError("plain sparsification expects a stage-1 selection")
    bounds = selection.parent.bounds
    if bounds is None:
        raise ValueError("no spectral bounds supplied: the parent plan carries none")
    A = bounds.A
    m = len(index_set)
    if b <= 1.0 + 1.0 / m:
        raise ValueError(f"b must exceed 1 + 1/|I| = {1 + 1 / m:.6g}, got {b}")
    if selection.draw_count is None:
        raise ValueError("stage-1 selection must record its draw count")

    # |row_i|^2 = rw_i |I| exactly: every character has unit modulus
    norms = selection.reweights * m
    # a repeated (index, reweight) pair repeats its row bit for bit, so the
    # scorer holds one row per distinct pair, found as ``index + i reweight``
    _, first, groups = np.unique(selection.indices + 1j * selection.reweights,
                                 return_index=True, return_inverse=True)
    distinct = replace(selection, indices=selection.indices[first],
                       reweights=selection.reweights[first])
    if selection.parent.lattice is not None and index_set.symmetric:
        op = LatticeOperator(selection.parent.lattice, index_set, distinct.lattice_rows)
        scorer = op.real_rows(np.sqrt(distinct.reweights))
    else:
        scorer = _dense_scorer(_stage1_rows(distinct, index_set))
    chosen = _barrier_greedy(norms, m, b, *scorer, groups=groups)
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
