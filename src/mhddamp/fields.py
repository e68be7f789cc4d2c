"""
Vector fields on the periodic box, in collocation and coefficient form.

Transform normalization: coefficients are Fourier-series coefficients, i.e.
f(x) = sum_k c(k) exp(i k.x), so the k = 0 coefficient of a constant field c
equals c and forward/inverse transforms compose to the identity.  All norms in
:mod:`mhddamp.operators` are defined against this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .grid import GridSpec

HERMITIAN_TOL = 1e-12


class NonFiniteFieldError(ValueError):
    """Raised when a field contains NaN or Inf values."""


class HermitianSymmetryError(ValueError):
    """Raised when coefficients fed to the inverse transform are not
    (to tolerance) the transform of a real field."""


@dataclass
class SpectralVectorField:
    """Three complex coefficient arrays indexed by integer wavenumber.

    ``coeffs`` has shape (3, N, N, N); axis 0 is the vector component.
    """

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.shape
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralVectorField":
        return cls(np.zeros((3,) + grid.shape, dtype=np.complex128), grid)

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.coeffs.copy(), self.grid)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.coeffs)))


@dataclass
class PhysicalVectorField:
    """Three real arrays of point values on the N^3 collocation grid."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(f"value shape {self.values.shape} != {expected}")
        if self.values.dtype != np.float64:
            self.values = self.values.astype(np.float64)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "PhysicalVectorField":
        return cls(np.zeros((3,) + grid.shape, dtype=np.float64), grid)

    def copy(self) -> "PhysicalVectorField":
        return PhysicalVectorField(self.values.copy(), self.grid)


# Raw-array transform helpers (shared by the hot paths in nonlinear/integrator).
# They use scipy.fft's default worker count, 1 unless a caller enters a
# scipy.fft.set_workers context (the CLI does, for --threads).

def fft_grid(values: np.ndarray, n: int) -> np.ndarray:
    """DFT of stacked real grids -> Fourier-series coefficients."""
    return _fft.fftn(values, axes=(-3, -2, -1)) / float(n**3)


def ifft_grid(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Fourier-series coefficients -> complex point values on the grid."""
    return _fft.ifftn(coeffs, axes=(-3, -2, -1)) * float(n**3)


def forward_transform(p: PhysicalVectorField) -> SpectralVectorField:
    """Collocation values -> Fourier coefficients.

    Rejects non-finite input.  Inverse of :func:`inverse_transform`.
    """
    if not np.all(np.isfinite(p.values)):
        raise NonFiniteFieldError("physical field contains non-finite values")
    return SpectralVectorField(fft_grid(p.values, p.grid.n_modes), p.grid)


def inverse_transform(s: SpectralVectorField, check: bool = True) -> PhysicalVectorField:
    """Fourier coefficients -> real collocation values.

    With ``check`` enabled the imaginary residue of the inverse DFT is
    compared against HERMITIAN_TOL (relative); a residue above tolerance
    means the coefficients do not represent a real field.
    """
    w = ifft_grid(s.coeffs, s.grid.n_modes)
    if check:
        scale = float(np.max(np.abs(w.real)))
        residue = float(np.max(np.abs(w.imag)))
        if residue > HERMITIAN_TOL * max(scale, 1e-300):
            raise HermitianSymmetryError(
                f"imaginary residue {residue:.3e} exceeds {HERMITIAN_TOL:.0e} x {scale:.3e}"
            )
    return PhysicalVectorField(np.ascontiguousarray(w.real), s.grid)


def hermitian_defect(s: SpectralVectorField) -> float:
    """Relative defect max |c(-k) - conj(c(k))| / max |c|.

    Zero (to roundoff) exactly when the field represents a real-valued
    physical field.
    """
    n = s.grid.n_modes
    rev = (-np.arange(n)) % n
    flipped = s.coeffs[:, rev][:, :, rev][:, :, :, rev]
    scale = float(np.max(np.abs(s.coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.conj(flipped) - s.coeffs))) / scale
