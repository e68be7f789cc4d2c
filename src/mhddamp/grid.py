"""
Periodic-box spectral grid: wavenumbers, truncation mask and quadrature weights.

The box is [0, 2*pi)^3 with N collocation points per axis.  Wavenumbers are
integers k = (k1, k2, k3) with ki in {-N/2+1, ..., N/2}.  A single spherical
cutoff |k| < R serves both as the Galerkin truncation and as the dealias rule:
with the default R = dealias_fraction * N/2 = N/3, quadratic products of
fields supported inside the ball are alias-free on the retained modes.

Fields are real, so their coefficients satisfy c(-k) = conj(c(k)) and only
the half spectrum k3 in {0, ..., N/2} is stored: the spectral arrays have
shape (N, N, N/2+1).  A sum of |c(k)|^2 over all wavenumbers is the sum over
the half spectrum weighted by ``parseval_weight``: 1 on the self-conjugate
planes k3 = 0 and k3 = N/2, whose mirror images are stored in the same
plane, and 2 in between, where each stored mode stands for itself and its
unstored mirror.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class GridSpec:
    """
    Cubic N x N x N spectral grid on the periodic box of side 2*pi.

    Parameters
    ----------
    n_modes : int
        Points per axis; must be an even integer >= 8.
    box_length : float
        Box side length.  Fixed at 2*pi; anything else is rejected.
    truncation_radius : float, optional
        Spherical spectral cutoff R: modes with |k| >= R are dropped by
        truncating operations.  Defaults to dealias_fraction * n_modes / 2.
    dealias_fraction : float
        Fraction of the Nyquist band kept by the dealias rule, in (0, 1].
    """

    n_modes: int
    box_length: float = TWO_PI
    truncation_radius: float | None = None
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        n = self.n_modes
        if not (_is_int(n) and n % 2 == 0 and n >= 8):
            raise ValueError(f"n_modes must be an even integer >= 8, got {n!r}")
        if not (_is_number(self.box_length) and abs(self.box_length - TWO_PI) <= 1e-14):
            raise ValueError(f"box_length is fixed at 2*pi, got {self.box_length!r}")
        if not (_is_number(self.dealias_fraction) and 0.0 < self.dealias_fraction <= 1.0):
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction!r}")
        if self.truncation_radius is None:
            object.__setattr__(self, "truncation_radius", self.dealias_fraction * n / 2.0)
        radius = self.truncation_radius
        if not (_is_number(radius) and 0.0 < radius <= n / 2.0):
            raise ValueError(f"truncation_radius must lie in (0, N/2], got {radius!r}")
        object.__setattr__(self, "truncation_radius", float(radius))

        # Integer wavenumbers; the Nyquist slot at index N/2 is stored as +N/2.
        # Along k3 only the half spectrum 0..N/2 is stored.
        j = np.arange(n)
        k1d = np.where(j <= n // 2, j, j - n).astype(np.float64)
        kx = k1d[:, None, None]
        ky = k1d[None, :, None]
        kz = k1d[None, None, : n // 2 + 1]
        k_sq = (kx * kx + ky * ky + kz * kz).astype(np.float64)
        parseval_weight = np.full(kz.shape, 2.0)
        parseval_weight[..., 0] = parseval_weight[..., -1] = 1.0
        keep = k_sq < radius * radius
        inv_k_sq = np.zeros_like(k_sq)
        nz = k_sq > 0
        inv_k_sq[nz] = 1.0 / k_sq[nz]
        for name, value in (
            ("k1d", k1d),
            ("kx", kx),
            ("ky", ky),
            ("kz", kz),
            ("k_sq", k_sq),
            ("keep_mask", keep),
            ("inv_k_sq", inv_k_sq),
            ("parseval_weight", parseval_weight),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    # Derived scalars -----------------------------------------------------

    @property
    def spacing(self) -> float:
        """Collocation spacing 2*pi / N."""
        return self.box_length / self.n_modes

    @property
    def cell_volume(self) -> float:
        """Quadrature weight (2*pi / N)^3 of one collocation cell."""
        return self.spacing**3

    @property
    def volume(self) -> float:
        """Box volume (2*pi)^3."""
        return self.box_length**3

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape (N, N, N) of one collocation grid."""
        return (self.n_modes, self.n_modes, self.n_modes)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape (N, N, N/2+1) of one half-spectrum coefficient array."""
        return (self.n_modes, self.n_modes, self.n_modes // 2 + 1)

    def collocation_axis(self) -> np.ndarray:
        """1-D array of collocation coordinates on one axis."""
        return self.spacing * np.arange(self.n_modes)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (X1, X2, X3) coordinate arrays on the grid."""
        x = self.collocation_axis()
        return x[:, None, None], x[None, :, None], x[None, None, :]
