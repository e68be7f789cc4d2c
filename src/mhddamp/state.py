"""Solver state: the pair w = (u, b) in coefficient form plus current time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .operators import divergence_l2


@dataclass
class MhdState:
    """The pair w = (u, b) as one complex array of packed ball modes.

    ``coeffs`` has shape (6, M) with components u1 u2 u3 b1 b2 b3, the
    checkpoint order, each holding the modes of the ball |k| < R in the
    order of ``grid.index``; ``u`` and ``b`` are (3, M) views of its two
    halves, so writing through them changes the state.
    """

    coeffs: np.ndarray
    grid: GridSpec
    t: float = 0.0

    def __post_init__(self) -> None:
        expected = (6,) + self.grid.index.shape
        if self.coeffs.shape != expected:
            raise ValueError(f"state shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec) -> MhdState:
        return cls(np.zeros((6,) + grid.index.shape, dtype=np.complex128), grid)

    @property
    def u(self) -> np.ndarray:
        return self.coeffs[0:3]

    @property
    def b(self) -> np.ndarray:
        return self.coeffs[3:6]

    def max_divergence(self) -> float:
        """max of the L2 divergence norms of u and b."""
        return max(divergence_l2(self.u, self.grid), divergence_l2(self.b, self.grid))
