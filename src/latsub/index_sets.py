"""Frequency index sets on Z^d, mixed-smoothness weights, and eigenvalue decay.

The reconstruction space is ``span{exp(2*pi*i*<k, x>)}`` over a finite set of
integer frequency vectors ``k``.  The central construction is the hyperbolic
cross

    { k in Z^d : prod_j max(1, |k_j| / gamma) <= R },

the natural truncation for dominating mixed smoothness.  Each frequency
carries a product weight ``w_s(k) = prod_j (1 + (2*pi*|k_j|)^(2s))^(1/2)``
whose inverse square is the eigenvalue of the associated embedding operator;
:func:`select_largest_eigenvalues` ranks frequencies by those eigenvalues.

All types are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IndexSet",
    "hyperbolic_cross",
    "hyperbolic_cross_product",
    "mixed_weight",
    "embedding_eigenvalues",
    "select_largest_eigenvalues",
]

#: Refuse to enumerate crosses larger than this unless the caller raises the cap.
DEFAULT_SIZE_CAP = 10_000_000


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _strictly_increasing(freqs: np.ndarray) -> bool:
    """Whether the rows are in strict lex order: each differs from the one
    before it, and is larger at the first coordinate where they differ."""
    n, d = freqs.shape
    differ = freqs[1:] != freqs[:-1]
    at = np.arange(n - 1) * d + differ.argmax(axis=1)  # first difference, flat
    flat = freqs.reshape(-1)
    return bool(differ.reshape(-1)[at].all() and (flat[at + d] > flat[at]).all())


@dataclass(frozen=True, eq=False)
class IndexSet:
    """An ordered, duplicate-free set of d-dimensional integer frequencies.

    Frequencies are kept in lexicographic order (first component most
    significant) so that coefficient vectors indexed by an ``IndexSet`` are
    reproducible across runs.  The order is a contract that three places
    rely on: ``lattice._prefix_structure`` finds shared prefixes as adjacent
    rows, ``symmetric`` tests I = -I as ``freqs[::-1] == -freqs``, and the
    real basis of ``fourier._real_blocks`` (the real-basis operators, Grams
    and greedy rows) pairs position p with its mirror m-1-p.

    Parameters
    ----------
    dimension:
        Spatial dimension d >= 1.
    frequencies:
        Integer array of shape (n, d); rows are the frequency vectors.
    """

    dimension: int
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        freqs = np.array(self.frequencies, dtype=np.int64)  # a copy the set owns
        if freqs.ndim != 2 or freqs.shape[1] != self.dimension:
            raise ValueError(
                f"frequencies must have shape (n, {self.dimension}), got {freqs.shape}"
            )
        if not _strictly_increasing(freqs):  # sort only what is not in lex order
            freqs = freqs[np.lexsort(freqs.T[::-1])]  # first component most significant
            if not _strictly_increasing(freqs):
                raise ValueError("duplicate frequency vectors are not allowed")
        object.__setattr__(self, "frequencies", _frozen(freqs))
        object.__setattr__(self, "_symmetric", bool(np.array_equal(freqs[::-1], -freqs)))

    def __len__(self) -> int:
        return self.frequencies.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dimension == other.dimension
            and np.array_equal(self.frequencies, other.frequencies)
        )

    @property
    def symmetric(self) -> bool:
        """Whether I = -I; in lex order, frequency p is minus frequency m-1-p."""
        return self._symmetric

    def __contains__(self, k) -> bool:
        k = np.asarray(k, dtype=np.int64)
        if k.shape != (self.dimension,):
            return False
        return bool(np.any(np.all(self.frequencies == k, axis=1)))

    def to_text(self) -> str:
        """Serialize to the line-oriented text format (bit-exact round trip)."""
        lines = [f"d={self.dimension} count={len(self)}"]
        lines.extend(" ".join(str(int(c)) for c in row) for row in self.frequencies)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IndexSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        header = re.match(r"d=(\d+)\s+count=(\d+)", lines[0]) if lines else None
        if header is None:
            raise ValueError("index set text must start with a 'd=<d> count=<n>' line")
        d, count = map(int, header.groups())
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1 : 1 + count]]
        if len(rows) != count:
            raise ValueError(f"expected {count} frequency rows, found {len(rows)}")
        freqs = np.array(rows, dtype=np.int64).reshape(count, d)
        return cls(dimension=d, frequencies=freqs)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "IndexSet":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _check_smoothness(s: float) -> float:
    s = float(s)
    if not np.isfinite(s) or s <= 0.5:
        raise ValueError(f"smoothness order must satisfy s > 1/2, got {s}")
    return s


def hyperbolic_cross_product(k, gamma: float) -> float:
    """The membership product ``prod_j max(1, |k_j|/gamma)`` for one frequency.

    This function is the single source of truth for membership decisions; the
    enumerator in :func:`hyperbolic_cross` accumulates factors in exactly the
    same coordinate order, so both always agree, including at the boundary
    (equality counts as inside).
    """
    p = 1.0
    for kj in np.asarray(k, dtype=np.int64):
        p *= max(1.0, abs(float(kj)) / gamma)
    return p


def hyperbolic_cross(
    d: int, gamma: float, R: float, size_cap: int = DEFAULT_SIZE_CAP
) -> IndexSet:
    """Enumerate the hyperbolic cross ``{k : prod_j max(1, |k_j|/gamma) <= R}``.

    Builds the cross one coordinate at a time: the members' prefixes of
    length j + 1 extend those of length j, each prefix with partial product p
    by the range ``|k_j| <= gamma * R / p`` trimmed at its ends by the exact
    test of :func:`hyperbolic_cross_product`.  Taking the prefixes in order
    with ascending ``k_j`` gives lex order.  Every level has at most as many
    prefixes as the cross has frequencies, and its size is checked against
    ``size_cap`` before it is allocated, so the build holds O(d * size_cap)
    integers and never the bounding box.  Every returned frequency satisfies
    ``|k_j| <= gamma * R`` componentwise.

    Parameters
    ----------
    d:
        Dimension, >= 1.
    gamma:
        Shape parameter, > 0.
    R:
        Radius, > 1.  Membership is non-strict: a product equal to R is inside.
    size_cap:
        Resource guard; raises ``ValueError`` exactly when the set would
        exceed this size.

    Returns
    -------
    IndexSet
        Lexicographically ordered cross.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    gamma = float(gamma)
    R = float(R)
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"gamma must be a finite positive real, got {gamma}")
    if not np.isfinite(R) or R <= 1:
        raise ValueError(f"R must be a finite real > 1, got {R}")

    def too_large() -> ValueError:
        return ValueError(
            f"hyperbolic cross (d={d}, gamma={gamma}, R={R}) exceeds "
            f"the size cap of {size_cap} frequencies"
        )

    # The members' distinct prefixes of length j, in lex order, and their
    # partial products.
    freqs = np.zeros((1, 0), dtype=np.int64)
    partial = np.ones(1)
    for _ in range(d):
        budget = R / partial
        # Every |k| up to this lower bound passes the exact test; if they
        # alone exceed the cap, so does the cross.  Past this check kmax fits
        # in int64 and exceeds the bound by at most 3 + 2e-12 * size_cap, so
        # the trimming loop below is short.
        if np.sum(2.0 * np.floor(gamma * budget * (1.0 - 1e-12)) + 1.0) > size_cap:
            raise too_large()
        # Range bound with a whisker of slack; the exact product test decides.
        # The product is monotone in |k| (correctly rounded operations are),
        # so each prefix's members are |k| <= kmax once the ends pass.
        kmax = np.floor(gamma * budget * (1.0 + 1e-12)).astype(np.int64)
        while True:
            fails = partial * np.maximum(1.0, kmax / gamma) > R
            if not fails.any():
                break
            kmax -= fails
        counts = 2 * kmax + 1
        if counts.sum() > size_cap:
            raise too_large()
        parents = np.repeat(np.arange(len(counts)), counts)
        # prefix i's run -kmax_i .. kmax_i ends at position cumsum_i - 1
        col = np.arange(len(parents)) - np.repeat(np.cumsum(counts) - kmax - 1, counts)
        partial = partial[parents] * np.maximum(1.0, np.abs(col) / gamma)
        freqs = np.column_stack([freqs[parents], col])
    return IndexSet(dimension=d, frequencies=freqs)


def mixed_weight(freqs, s: float) -> np.ndarray | float:
    """Product weight ``prod_j (1 + (2*pi*|k_j|)^(2s))^(1/2)``, always >= 1.

    Accepts a single frequency vector of shape (d,) or a stack of shape (n, d);
    returns a scalar or an array of length n accordingly.
    """
    s = _check_smoothness(s)
    k = np.asarray(freqs, dtype=np.int64)
    single = k.ndim == 1
    k = np.atleast_2d(k)
    w = np.sqrt(np.prod(1.0 + (2.0 * np.pi * np.abs(k)) ** (2.0 * s), axis=1))
    return float(w[0]) if single else w


def embedding_eigenvalues(freqs, s: float) -> np.ndarray | float:
    """Eigenvalues ``lambda_k = mixed_weight(k, s)**(-2)`` in (0, 1].

    Monotone non-increasing in every ``|k_j|``; decays fast enough to be
    summable over Z^d for any s > 1/2 (finite trace).
    """
    w = mixed_weight(freqs, s)
    return 1.0 / (w * w)


def select_largest_eigenvalues(parent: IndexSet, m: int, s: float) -> IndexSet:
    """The m frequencies of ``parent`` with largest eigenvalues.

    Ties are broken by the parent's deterministic lexicographic order (stable
    sort on the eigenvalues, which are already aligned with that order).
    """
    if m > len(parent):
        raise ValueError(f"m={m} exceeds the parent set size {len(parent)}")
    lam = np.atleast_1d(embedding_eigenvalues(parent.frequencies, s))
    # stable sort on -lambda keeps lexicographic order within ties
    order = np.argsort(-lam, kind="stable")[:m]
    return IndexSet(dimension=parent.dimension, frequencies=parent.frequencies[order])
