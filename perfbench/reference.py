"""Independent references the benchmark checks latsub's outputs against.

Nothing here imports latsub.  The hyperbolic cross is enumerated in exact
rational arithmetic, the kink's univariate Fourier coefficients come from
Gauss-Legendre quadrature of its definition (not from the closed form the
library uses), lattice residues are summed with Python integers, and frame
constants come from a Gram matrix assembled densely from the sample points.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Gauss-Legendre nodes for the kink quadrature: exact to rounding for every
#: |k| <= 24, which covers the workloads' crosses (see the tests).
QUADRATURE_NODES = 128

#: The kink's support is |x - 1/2| <= 5^(-1/2).
_HALF_WIDTH = 1.0 / math.sqrt(5.0)


def hyperbolic_cross(d: int, gamma: float, radius: float) -> list[tuple[int, ...]]:
    """``{k in Z^d : prod_j max(1, |k_j|/gamma) <= R}`` in lexicographic order.

    Products are compared exactly as fractions of the binary values of gamma
    and R, so frequencies on the boundary (product == R) are members.
    """
    g, r = Fraction(gamma), Fraction(radius)
    prefixes: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(1))]
    for _ in range(d):
        grown = []
        for prefix, product in prefixes:
            grown.append((prefix + (0,), product))
            k = 1
            while True:
                extended = product * max(Fraction(1), Fraction(k) / g)
                if extended > r:
                    break
                grown.append((prefix + (k,), extended))
                grown.append((prefix + (-k,), extended))
                k += 1
        prefixes = grown
    return sorted(prefix for prefix, _ in prefixes)


def _kink_profile(x: np.ndarray) -> np.ndarray:
    """The unnormalized univariate kink ``max(1/5 - (x - 1/2)^2, 0)``."""
    return np.maximum(0.2 - (x - 0.5) ** 2, 0.0)


def _support_rule() -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    return 0.5 + _HALF_WIDTH * t, _HALF_WIDTH * w


def kink_coefficients_1d(kmax: int) -> np.ndarray:
    """Coefficients ``int_0^1 g(x) exp(-2 pi i k x) dx`` for k = -kmax..kmax.

    ``g`` is the kink scaled to unit L2 norm; the scale is found by the same
    quadrature.  Entry ``k + kmax`` holds frequency k.
    """
    x, w = _support_rule()
    profile = _kink_profile(x)
    scale = 1.0 / math.sqrt(float(np.sum(w * profile**2)))
    k = np.arange(-kmax, kmax + 1)
    phases = np.exp(-2j * np.pi * np.outer(k, x))
    return scale * (phases @ (w * profile))


class CrossReference:
    """Reference data for the kink on one hyperbolic cross."""

    def __init__(self, d: int, gamma: float, radius: float):
        self.frequencies = hyperbolic_cross(d, gamma, radius)
        self.members = frozenset(self.frequencies)
        self.size = len(self.frequencies)
        self.kmax = max(max(abs(c) for c in k) for k in self.frequencies)
        self._coeff_1d = kink_coefficients_1d(self.kmax)
        captured = float(np.sum(np.abs(self.coefficients(self.frequencies)) ** 2))
        # the d-fold product of unit-norm kinks has unit norm
        self.truncation_error = math.sqrt(max(1.0 - captured, 0.0))

    def coefficients(self, freqs) -> np.ndarray:
        """Product coefficients for the rows of ``freqs`` (members only)."""
        K = np.asarray(freqs, dtype=np.int64)
        return np.prod(self._coeff_1d[K + self.kmax], axis=1)

    def same_set(self, freqs) -> bool:
        rows = [tuple(int(c) for c in k) for k in np.asarray(freqs)]
        return len(rows) == self.size and frozenset(rows) == self.members

    def aliasing_error(self, freqs, coeffs) -> float:
        """``sqrt(sum_k |ghat_k - c_k|^2)`` for coefficients ordered as ``freqs``."""
        diff = self.coefficients(freqs) - np.asarray(coeffs)
        return math.sqrt(float(np.sum(np.abs(diff) ** 2)))

    def is_reconstructed_by(self, size: int, generator) -> bool:
        """Whether the residues ``k . z mod M`` are distinct on the cross."""
        z = [int(c) for c in generator]
        residues = {sum(kj * zj for kj, zj in zip(k, z)) % size for k in self.frequencies}
        return len(residues) == self.size


def random_draw_size(m: int) -> int:
    """``ceil(|I| ln |I|)``, the stage-1 and continuous-random point count."""
    return max(1, math.ceil(m * math.log(m))) if m > 1 else 1


def plain_lower_bound(b: float) -> float:
    """Certified lower frame constant ``(b-1)^3 / (178 (b+1)^2) * A``.

    A = 1: the parent lattice is reconstructing, so its equal-weight frame
    over the cross is tight with constant 1.
    """
    return (b - 1.0) ** 3 / (178.0 * (b + 1.0) ** 2)


def lower_frame_constant(points, weights, freqs) -> float:
    """Smallest eigenvalue of ``sum_i w_i e(x_i) e(x_i)^H`` over the frequencies."""
    L = np.exp(2j * np.pi * (np.asarray(points) @ np.asarray(freqs, dtype=np.float64).T))
    gram = L.conj().T @ (np.asarray(weights)[:, None] * L)
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
