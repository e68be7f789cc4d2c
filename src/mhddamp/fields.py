"""
Vector fields on the periodic box, in collocation and coefficient form.

Transform normalization: coefficients are Fourier-series coefficients, i.e.
f(x) = sum_k c(k) exp(i k.x), so the k = 0 coefficient of a constant field c
equals c and forward/inverse transforms compose to the identity.  All norms in
:mod:`mhddamp.operators` are defined against this convention.

Fields are real, so only the half spectrum k3 = 0..N/2 is stored (see
:mod:`mhddamp.grid`) and the transforms are real-to-complex.
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
    """Raised when a self-conjugate plane of the coefficients fed to the
    inverse transform is not (to tolerance) that of a real field."""


@dataclass
class SpectralVectorField:
    """Three complex half-spectrum coefficient arrays indexed by integer
    wavenumber.

    ``coeffs`` has shape (3, N, N, N/2+1); axis 0 is the vector component.
    The modes with k3 < 0 are the complex conjugates of stored ones.
    """

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.spectral_shape
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralVectorField":
        return cls(np.zeros((3,) + grid.spectral_shape, dtype=np.complex128), grid)

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


# Raw-array transform helpers (shared by the hot paths in nonlinear/integrator).
# They use scipy.fft's default worker count, 1 unless a caller enters a
# scipy.fft.set_workers context (the CLI does, for --threads).  norm="forward"
# puts the 1/N^3 of the Fourier-series convention on the forward transform.

def fft_grid(values: np.ndarray) -> np.ndarray:
    """Real-to-complex DFT of stacked real grids -> half-spectrum
    Fourier-series coefficients."""
    return _fft.rfftn(values, axes=(-3, -2, -1), norm="forward")


def ifft_grid(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Half-spectrum Fourier-series coefficients -> real point values on the
    N^3 grid.  Only the Hermitian part of the self-conjugate planes counts."""
    return _fft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def forward_transform(p: PhysicalVectorField) -> SpectralVectorField:
    """Collocation values -> Fourier coefficients.

    Rejects non-finite input.  Inverse of :func:`inverse_transform`.
    """
    if not np.all(np.isfinite(p.values)):
        raise NonFiniteFieldError("physical field contains non-finite values")
    return SpectralVectorField(fft_grid(p.values), p.grid)


def inverse_transform(s: SpectralVectorField, check: bool = True) -> PhysicalVectorField:
    """Fourier coefficients -> real collocation values.

    With ``check`` enabled non-finite coefficients are rejected and the
    self-conjugate planes are checked: a :func:`hermitian_defect` above
    HERMITIAN_TOL means the coefficients do not represent a real field.
    """
    if check:
        if not s.is_finite():
            raise NonFiniteFieldError("spectral field contains non-finite coefficients")
        defect = hermitian_defect(s)
        if defect > HERMITIAN_TOL:
            raise HermitianSymmetryError(
                f"Hermitian defect {defect:.3e} of the self-conjugate planes exceeds "
                f"{HERMITIAN_TOL:.0e}"
            )
    return PhysicalVectorField(ifft_grid(s.coeffs, s.grid.n_modes), s.grid)


def hermitian_defect(s) -> float:
    """Relative defect max |c(-k) - conj(c(k))| / max |c| of ``s.coeffs``
    (a field or an MhdState) on the planes k3 = 0 and k3 = N/2.

    Those planes hold both k and -k; every other stored mode has its mirror
    outside the half spectrum, so the defect is zero (to roundoff) exactly
    when the coefficients represent a real-valued physical field.
    """
    n = s.grid.n_modes
    rev = (-np.arange(n)) % n
    planes = s.coeffs[..., [0, n // 2]]
    mirrored = planes[:, rev][:, :, rev]
    scale = float(np.max(np.abs(s.coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.conj(mirrored) - planes))) / scale
