"""Solver state: the pair w = (u, b) in coefficient form plus current time."""

from __future__ import annotations

from dataclasses import dataclass

from .fields import SpectralVectorField
from .operators import divergence_l2


@dataclass
class MhdState:
    u: SpectralVectorField
    b: SpectralVectorField
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.u.grid is not self.b.grid and self.u.grid != self.b.grid:
            raise ValueError("u and b must share one grid")

    @property
    def grid(self):
        return self.u.grid

    def copy(self) -> "MhdState":
        return MhdState(self.u.copy(), self.b.copy(), self.t)

    def is_finite(self) -> bool:
        return self.u.is_finite() and self.b.is_finite()

    def max_divergence(self) -> float:
        """max of the L2 divergence norms of u and b."""
        return max(divergence_l2(self.u), divergence_l2(self.b))
