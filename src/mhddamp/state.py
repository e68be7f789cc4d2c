"""Solver state: the pair w = (u, b) in coefficient form plus current time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralVectorField
from .grid import GridSpec
from .operators import divergence_l2


@dataclass
class MhdState:
    """The pair w = (u, b) as one complex half-spectrum array.

    ``coeffs`` has shape (6, N, N, N/2+1) with components u1 u2 u3 b1 b2 b3,
    the checkpoint order; ``u`` and ``b`` are views of its two halves, so
    writing through them changes the state.
    """

    coeffs: np.ndarray
    grid: GridSpec
    t: float = 0.0

    def __post_init__(self) -> None:
        expected = (6,) + self.grid.spectral_shape
        if self.coeffs.shape != expected:
            raise ValueError(f"state shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @classmethod
    def from_fields(cls, u: SpectralVectorField, b: SpectralVectorField, t=0.0) -> MhdState:
        """A state holding copies of the fields u and b."""
        if u.grid != b.grid:
            raise ValueError("u and b must share one grid")
        return cls(np.concatenate((u.coeffs, b.coeffs)), u.grid, t)

    @classmethod
    def zeros(cls, grid: GridSpec) -> MhdState:
        return cls(np.zeros((6,) + grid.spectral_shape, dtype=np.complex128), grid)

    @property
    def u(self) -> SpectralVectorField:
        return SpectralVectorField(self.coeffs[0:3], self.grid)

    @property
    def b(self) -> SpectralVectorField:
        return SpectralVectorField(self.coeffs[3:6], self.grid)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.coeffs)))

    def max_divergence(self) -> float:
        """max of the L2 divergence norms of u and b."""
        return max(divergence_l2(self.u), divergence_l2(self.b))
