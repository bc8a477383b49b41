"""Reference test function with known Fourier coefficients, plus error splits.

The reference is a tensor product of shifted truncated parabolas ("kink"):

    g(x) = c * max(1/5 - (x - 1/2)^2, 0),   c = 5^(3/4) * 15 / (4 sqrt(3)),

normalized so the d-dimensional product has unit L2 norm on the torus.  Its
univariate Fourier coefficients have a closed form (two integrations by
parts of the parabola against a character); d-dimensional coefficients are
products of univariate ones.  The closed form is cross-checked against
adaptive quadrature by the test suite before anything downstream trusts it.

The squared L2 error of a reconstruction splits orthogonally into the
truncation part ``||f||^2 - sum_{k in I} |fhat_k|^2`` (projection loss) and
the aliasing part ``sum_{k in I} |fhat_k - ghat_k|^2`` (recovery loss within
the space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "KINK_SCALE",
    "KinkFunction",
    "kink_eval",
    "kink_coeff_1d",
    "kink_coefficients",
    "truncation_error_sq",
    "aliasing_error_sq",
]

#: Univariate normalization constant c = 5^(3/4) * 15 / (4 sqrt(3)).
KINK_SCALE = 5.0**0.75 * 15.0 / (4.0 * np.sqrt(3.0))

#: Half-width of the support: the parabola 1/5 - u^2 vanishes at |u| = 5^(-1/2).
_HALF_WIDTH = 1.0 / np.sqrt(5.0)


def kink_eval(x: np.ndarray) -> np.ndarray | float:
    """Evaluate the product kink at points in [0,1)^d.

    Accepts shape (d,) or (n, d); nonnegative everywhere, supported where
    every ``|x_j - 1/2| <= 5^(-1/2)``.
    """
    pts = np.asarray(x, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    # one column factor at a time, so no (n, d) temporary is formed
    vals = np.ones(len(pts))
    for col in pts.T:
        vals *= KINK_SCALE * np.maximum(0.2 - (col - 0.5) ** 2, 0.0)
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class KinkFunction:
    """The d-dimensional kink."""

    dimension: int
    #: The squared L2 norm on the torus, exactly 1 by construction.
    norm_sq: ClassVar[float] = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        pts = np.atleast_2d(np.asarray(x))
        if pts.shape[1] != self.dimension:
            raise ValueError(f"points must have {self.dimension} columns")
        return kink_eval(x)


def kink_coeff_1d(k) -> np.ndarray | float:
    """Closed-form univariate coefficient ``int_0^1 g(x) exp(-2 pi i k x) dx``.

    Real and even in k: the shift to 1/2 contributes ``(-1)^k`` and the even
    parabola kills the imaginary part.  ``k = 0`` gives ``5^(1/4)/sqrt(3)``.
    """
    k_arr = np.asarray(k, dtype=np.int64)
    single = k_arr.ndim == 0
    k_arr = np.abs(np.atleast_1d(k_arr))  # even in k; evaluate on |k|
    out = np.full(k_arr.shape, 5.0**0.25 / np.sqrt(3.0))
    nz = k_arr != 0
    if np.any(nz):
        beta = 2.0 * np.pi * k_arr[nz]
        ba = beta * _HALF_WIDTH
        sign = np.where(k_arr[nz] % 2 == 0, 1.0, -1.0)
        out[nz] = (
            KINK_SCALE * sign * 4.0 / (beta * beta * beta)
            * (np.sin(ba) - ba * np.cos(ba))
        )
    return float(out[0]) if single else out


def kink_coefficients(freqs: np.ndarray) -> np.ndarray:
    """d-dimensional coefficients as products of univariate ones (lazy, per row)."""
    K = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
    return np.prod(kink_coeff_1d(K.ravel()).reshape(K.shape), axis=1)


def truncation_error_sq(
    norm_sq: float, ref_coeffs: np.ndarray, slack: float = 1e-12
) -> float:
    """``||f||^2 - sum |fhat_k|^2`` over the reconstruction space, clamped at 0.

    ``ref_coeffs`` are the reference coefficients on the index set.  A result
    below ``-slack`` means the reference data are inconsistent and raises.
    """
    captured = float(np.sum(np.abs(np.asarray(ref_coeffs)) ** 2))
    value = norm_sq - captured
    if value < -slack:
        raise ValueError(
            f"captured energy {captured!r} exceeds the total norm {norm_sq!r} "
            "beyond tolerance; inconsistent reference coefficients"
        )
    return max(value, 0.0)


def aliasing_error_sq(ref_coeffs: np.ndarray, computed: np.ndarray) -> float:
    """``sum_{k in I} |fhat_k - ghat_k|^2`` between reference and computed."""
    ref = np.asarray(ref_coeffs)
    got = np.asarray(computed)
    if ref.shape != got.shape:
        raise ValueError(
            f"coefficient vectors disagree in shape: {ref.shape} vs {got.shape}"
        )
    return float(np.sum(np.abs(ref - got) ** 2))
