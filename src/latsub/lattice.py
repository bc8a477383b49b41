"""Rank-1 lattices, reconstructing-property checks, and generator search.

A rank-1 lattice is the point set ``{(i*z mod M)/M : i = 0..M-1}`` in
``[0,1)^d`` for a generating vector ``z`` and size ``M``.  It *reconstructs*
a frequency set I when ``k -> <k, z> mod M`` is injective on I, which makes
the exponentials with frequencies in I exactly orthonormal under the discrete
inner product with uniform weights 1/M (exact quadrature, tight frame).

Residue arithmetic is exact and vectorized in int64: lattices are refused
above ``_INT64_SAFE_M`` points, where every intermediate product provably
fits, and every generator, row and frequency array a caller passes is
refused unless int64 holds it exactly (``index_sets._admit``), so nothing
can be truncated or wrap silently.

:func:`search_generator` builds generators component by component with a
fixed budget per size M (3 attempts of at most 24 random candidates per
component).  Its default schedule starts at the first prime >= 2|I|; every
later size is 5-smooth (``2^a 3^b 5^c``), the smallest one >= twice the size
before, up to ``_INT64_SAFE_M``; sizes below |I| are skipped by pigeonhole.
Every lattice transform downstream runs at length M: a 5-smooth M keeps
those FFTs cheap, while numpy's FFT at a large prime length costs several
times as much as at a nearby smooth one.
The first size stays prime: a schedule of 5-smooth sizes only, from 2|I|,
raised the share of subsampled reconstructions whose aliasing error exceeds
the truncation error on the small crosses (d = 5, R = 4 and 6), which all
reconstruct at that first prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .index_sets import IndexSet, _admit, _frozen, _index_list, _weight_vector

if TYPE_CHECKING:  # pragma: no cover
    from .mz import SpectralBounds

__all__ = [
    "Rank1Lattice",
    "SamplePlan",
    "lattice_points",
    "residues",
    "is_reconstructing",
    "search_generator",
    "GeneratorSearchError",
]

# int64 is safe while (M-1)^2 + d*(M-1) < 2^63; this is a comfortable cutoff.
_INT64_SAFE_M = 2**31

# The generator search's fixed budget per lattice size M.
_ATTEMPTS_PER_M = 3
_CANDIDATES_PER_COMPONENT = 24


class GeneratorSearchError(RuntimeError):
    """No reconstructing generating vector found within the search budget."""


@dataclass(frozen=True, eq=False)
class Rank1Lattice:
    """Rank-1 lattice with generator ``z`` (reduced mod M) and size ``M``.

    ``M`` is at most ``_INT64_SAFE_M``, the range of exact int64 residues.
    """

    dimension: int
    generator: np.ndarray
    size: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rank1Lattice)
            and self.dimension == other.dimension
            and self.size == other.size
            and np.array_equal(self.generator, other.generator)
        )

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.dimension}")
        if self.size < 1:
            raise ValueError(f"lattice size must be >= 1, got {self.size}")
        if self.size > _INT64_SAFE_M:
            raise ValueError(
                f"lattice size {self.size} exceeds the exact int64 range "
                f"(at most {_INT64_SAFE_M})"
            )
        z = _admit(self.generator, np.int64, "generator entries")
        if z.shape != (self.dimension,):
            raise ValueError(f"generator must have shape ({self.dimension},), got {z.shape}")
        object.__setattr__(self, "generator", _frozen(z % self.size))
        object.__setattr__(self, "size", int(self.size))

    def points(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Lattice points ``(i*z mod M)/M`` for all i, or the given row indices."""
        i = (np.arange(self.size, dtype=np.int64) if rows is None
             else _index_list(rows, self.size, "rows", "M"))
        # one column at a time: an (n, d) result and one int64 n-vector alive
        out = np.empty((len(i), self.dimension))
        col = np.empty(len(i), dtype=np.int64)
        for j, z in enumerate(self.generator):
            np.multiply(i, z, out=col)
            np.remainder(col, self.size, out=col)
            np.divide(col, self.size, out=out[:, j])
        return out

    def to_line(self) -> str:
        """Single-line file format ``d M z_1 ... z_d``."""
        return " ".join(
            [str(self.dimension), str(self.size)]
            + [str(int(c)) for c in self.generator]
        )

    @classmethod
    def from_line(cls, line: str) -> "Rank1Lattice":
        tok = line.split()
        if len(tok) < 2:
            raise ValueError(f"lattice line must read 'd M z_1 ... z_d', got {line!r}")
        d, M = int(tok[0]), int(tok[1])
        if len(tok) != d + 2:
            raise ValueError(f"lattice line must hold d = {d} generator entries, "
                             f"got {len(tok) - 2}")
        return cls(dimension=d, generator=[int(t) for t in tok[2:]], size=M)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_line() + "\n")

    @classmethod
    def load(cls, path) -> "Rank1Lattice":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_line(fh.readline())


class SamplePlan:
    """Nonnegative quadrature weights on a point set or on rows of a lattice.

    A point set, ``SamplePlan(points=..., weights=...)``, stores its points.
    A lattice plan, ``SamplePlan(weights=..., lattice=..., lattice_rows=...)``,
    stores each point's lattice index in ``[0, M)`` (None: all M in order);
    reading ``points`` computes ``lattice.points(lattice_rows)``, so the rows
    and points cannot disagree.  ``bounds`` may record the MZ constants.
    The plan holds read-only copies of the caller's arrays, not the arrays.
    """

    def __init__(self, points=None, *, weights, bounds: "SpectralBounds | None" = None,
                 lattice: Rank1Lattice | None = None, lattice_rows=None):
        if lattice is None:
            if lattice_rows is not None:
                raise ValueError("lattice_rows need a lattice")
            points = np.atleast_2d(_admit(points, np.float64, "points"))
            n, of = len(points), f"{len(points)} points"
        elif points is not None:
            raise ValueError("a lattice plan takes no points: they are computed from its rows")
        elif lattice_rows is None:
            n, of = lattice.size, f"all M = {lattice.size} lattice points"
        else:
            lattice_rows = _index_list(lattice_rows, lattice.size, "lattice_rows", "M")
            n, of = len(lattice_rows), f"lattice_rows of shape {lattice_rows.shape}"
        w = _weight_vector(weights, n, of)
        for name, value in (("_points", points), ("weights", w), ("bounds", bounds),
                            ("lattice", lattice), ("lattice_rows", lattice_rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SamplePlan is immutable: cannot set {name!r}")

    @property
    def points(self) -> np.ndarray:
        """The (N, d) points; a lattice plan computes them from its rows."""
        if self.lattice is None:
            return self._points
        return self.lattice.points(self.lattice_rows)

    @property
    def dimension(self) -> int:
        return self._points.shape[1] if self.lattice is None else self.lattice.dimension

    def __len__(self) -> int:
        return len(self.weights)


def lattice_points(lat: Rank1Lattice) -> SamplePlan:
    """All M lattice points (computed on reading) with uniform weights 1/M."""
    return SamplePlan(weights=np.full(lat.size, 1.0 / lat.size), lattice=lat)


def residues(lat: Rank1Lattice, freqs: np.ndarray) -> np.ndarray:
    """Exact residues ``<k, z> mod M`` for every frequency row of ``freqs``."""
    K = _admit(freqs, np.int64, "frequencies")
    if K.ndim != 2 or K.shape[1] != lat.dimension:
        raise ValueError(f"frequencies must have shape (n, {lat.dimension}), got {K.shape}")
    M = lat.size
    z = lat.generator
    # (k mod M) * z_j <= (M-1)^2 < 2^62; reduce each term before the sum.
    r = np.zeros(len(K), dtype=np.int64)
    for j in range(lat.dimension):
        r = (r + (K[:, j] % M) * z[j] % M) % M
    return r


def is_reconstructing(lat: Rank1Lattice, index_set: IndexSet) -> bool:
    """Whether ``k -> <k, z> mod M`` is injective on the index set.

    Equivalent to the character sums ``(1/M) sum_i exp(2*pi*i*<k-l, x^i>)``
    being exactly the Kronecker delta on the set, i.e. exact quadrature with
    constant 1; decided here in exact integer arithmetic.
    """
    if len(index_set) == 0:
        raise ValueError("index set must be nonempty")
    if index_set.dimension != lat.dimension:
        raise ValueError("dimension mismatch between lattice and index set")
    if lat.size < len(index_set):
        return False  # pigeonhole
    return _distinct(residues(lat, index_set.frequencies))


def _distinct(r: np.ndarray) -> bool:
    """Whether the entries of ``r`` are pairwise distinct (one sort)."""
    s = np.sort(r)
    return bool((s[1:] != s[:-1]).all())


def _prefix_structure(K: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-coordinate (parent pointers, last column) over unique prefixes.

    Stage j works on the distinct projections of the frequency set onto the
    first j coordinates, in lex order; ``parents`` maps each stage-j prefix
    to its stage-j-1 prefix so residues can be extended incrementally.  The
    rows of ``K`` must be lex ordered, as ``IndexSet`` keeps them: rows that
    share a prefix are then adjacent, so one scan per column finds them.
    """
    new = np.zeros(len(K), dtype=bool)  # row starts a new prefix
    new[0] = True
    prefix_of_row = np.zeros(len(K), dtype=np.int64)
    structure: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(K.shape[1]):
        new[1:] |= K[1:, j] != K[:-1, j]
        starts = np.flatnonzero(new)
        structure.append((prefix_of_row[starts], K[starts, j]))
        prefix_of_row = np.cumsum(new, dtype=np.int64) - 1
    return structure


def _is_prime(n: int) -> bool:
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def _next_prime(n: int) -> int:
    """The smallest prime greater than ``n``.

    Trial division costs O(sqrt(n)) per candidate, a few milliseconds at
    2**32, which is beyond any size the generator search accepts
    (``_INT64_SAFE_M``).
    """
    n = max(n, 1) + 1
    while not _is_prime(n):
        n += 1
    return n


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


#: Names the default schedule in cache file names; change it with the schedule.
_DEFAULT_SCHEDULE_NAME = "prime-smooth5"


def _default_schedule(start: int) -> Iterable[int]:
    """The first prime >= ``start``, then 5-smooth sizes up to ``_INT64_SAFE_M``.

    Each later size is the smallest 5-smooth integer >= twice the one before,
    so the second is ``_fast_length(2p)`` for the prime p and the rest double.
    """
    M = _next_prime(start - 1)
    while M <= _INT64_SAFE_M:
        yield M
        M = _fast_length(2 * M)


def search_generator(
    index_set: IndexSet,
    rng_seed: int,
    m_schedule: Iterable[int] | None = None,
) -> Rank1Lattice:
    """Find a reconstructing rank-1 lattice for ``index_set``.

    Component-by-component construction with random candidate components:
    for each lattice size M from the schedule, the generator is built one
    coordinate at a time, testing injectivity of ``k -> <k, z> mod M`` on the
    projected frequency set after each coordinate.  Each M gets a fixed
    budget of 3 attempts of at most 24 candidates per component.  The
    default schedule starts at the first prime >= 2|I|, goes on through
    5-smooth sizes, each the smallest >= twice the size before, and ends at
    ``_INT64_SAFE_M``.  Sizes below |I| cannot reconstruct
    (pigeonhole) and are skipped.  The whole search is deterministic given
    ``rng_seed``, a nonnegative integer.

    Raises
    ------
    GeneratorSearchError
        If no generator is found before the schedule is exhausted, or the
        schedule holds a size beyond ``_INT64_SAFE_M``.
    """
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    m = len(index_set)
    if m < 1:
        raise ValueError("index set must be nonempty")
    d = index_set.dimension
    if m == 1:
        return Rank1Lattice(dimension=d, generator=np.zeros(d, dtype=np.int64), size=1)

    # A stage's last coordinates take few distinct values (at most
    # 2 gamma R + 1 on a hyperbolic cross), so a candidate's term is computed
    # once per value and gathered per prefix.
    structure = [
        (parents, *np.unique(lastcol, return_inverse=True))
        for parents, lastcol in _prefix_structure(index_set.frequencies)
    ]
    if m_schedule is None:
        m_schedule = _default_schedule(2 * m)

    tried = []
    for M in m_schedule:
        if M > _INT64_SAFE_M:
            raise GeneratorSearchError(
                f"schedule reached M={M} beyond the vectorized search range"
            )
        if M < m:
            continue  # pigeonhole
        tried.append(M)
        for attempt in range(_ATTEMPTS_PER_M):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([rng_seed, M, attempt]))
            )
            z = np.zeros(d, dtype=np.int64)
            r = np.zeros(1, dtype=np.int64)
            for j, (parents, values, which) in enumerate(structure):
                r_parents = r[parents]
                vred = values % M
                for _ in range(_CANDIDATES_PER_COMPONENT):
                    cand = int(rng.integers(1, M))
                    r_new = (r_parents + (vred * cand % M)[which]) % M
                    if _distinct(r_new):
                        z[j], r = cand, r_new
                        break
                else:
                    break  # component j not placed: next attempt
            else:
                return Rank1Lattice(dimension=d, generator=z, size=M)

    raise GeneratorSearchError(
        f"no reconstructing generator for |I|={m} (d={d}) within the budget; "
        f"tried M in {tried[:3]}...{tried[-1:] if tried else []} "
        f"({len(tried)} sizes, {_ATTEMPTS_PER_M} attempts each)"
    )
