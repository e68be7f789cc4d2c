"""
Fourier-space operators: truncation, Leray projection, derivatives and norms.

Everything here is exact coefficient algebra on stacked packed ball modes,
(..., M), with their grid passed beside them; no transforms are performed.
Integrals follow the convention of :mod:`mhddamp.fields`: for a field with
coefficients c(k), the squared L2 norm over the box is (2*pi)^3 sum |c(k)|^2,
taken over the packed modes with the grid's ``parseval_weight``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec


def truncate_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The modes |k| < R of stacked half-spectrum (..., N, N, N/2+1)
    coefficients, or of their compact columns ``grid.column_shape``, packed
    as a new C-contiguous (..., M) array: every other mode is dropped."""
    index = grid.column_index if coeffs.shape[-3:] == grid.column_shape else grid.index
    return np.take(coeffs.reshape(coeffs.shape[:-3] + (-1,)), index, axis=-1)


def leray_project_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project onto divergence-free fields: c(k) -> c(k) - k (k.c)/|k|^2.

    The k = 0 mode passes through unchanged (a constant field is
    divergence-free).  Idempotent and self-adjoint for the discrete inner
    product.  Returns the projection, made in place when ``coeffs`` is
    C-contiguous.  ``coeffs`` may stack m vector fields, (3 m, M) or
    (m, 3, M); each is projected.
    """
    c = coeffs.reshape((-1, 3) + grid.k_sq.shape)  # a view of a contiguous coeffs
    k = (grid.kx, grid.ky, grid.kz)
    k_dot = np.multiply(k[0], c[:, 0])
    tmp = np.empty_like(k_dot)
    k_dot += np.multiply(k[1], c[:, 1], out=tmp)
    k_dot += np.multiply(k[2], c[:, 2], out=tmp)
    k_dot *= grid.inv_k_sq  # zero at k = 0: mean mode untouched
    for i in range(3):
        c[:, i] -= np.multiply(k[i], k_dot, out=tmp)
    return c.reshape(coeffs.shape)


def divergence(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral scalar div(c) = i k . c(k) of a (3, M) field."""
    return 1j * (grid.kx * coeffs[0] + grid.ky * coeffs[1] + grid.kz * coeffs[2])


def viscous_symbol(grid: GridSpec, nu_h: float, nu_v: float) -> np.ndarray:
    """Nonnegative (M,) multiplier nu_h (k1^2 + k2^2) + nu_v k3^2.  Minus it
    is the anisotropic viscous operator; with nu_h = nu_v = 1, the
    Laplacian."""
    return nu_h * (grid.kx**2 + grid.ky**2) + nu_v * grid.kz**2


# Norms --------------------------------------------------------------------


def weighted_sum_sq(coeffs: np.ndarray, weight: np.ndarray | float, grid: GridSpec) -> float:
    """(2*pi)^3 sum_k weight(k) |c(k)|^2 over all wavenumbers, accumulated
    over the leading axes of ``coeffs``."""
    mag = coeffs.real**2 + coeffs.imag**2
    return grid.volume * float(np.sum(grid.parseval_weight * weight * mag))


def sobolev_norm(coeffs: np.ndarray, grid: GridSpec, order: float) -> float:
    """Inhomogeneous Sobolev norm of order ``order``, with weight
    (1 + |k|^2)^order; order 0 gives the L2 norm."""
    return float(np.sqrt(weighted_sum_sq(coeffs, (1.0 + grid.k_sq) ** order, grid)))


def divergence_l2(coeffs: np.ndarray, grid: GridSpec) -> float:
    """L2 norm of the divergence of a (3, M) field over the box."""
    return float(np.sqrt(weighted_sum_sq(divergence(coeffs, grid), 1.0, grid)))


def h1_norm_pair(w: np.ndarray, grid: GridSpec) -> float:
    """Inhomogeneous H1 norm sqrt(||u||_H1^2 + ||b||_H1^2) of the pair
    w = (u, b), from its stacked (6, M) coefficients."""
    u_h1, b_h1 = (sobolev_norm(f, grid, 1.0) for f in np.split(w, 2))
    return float(np.sqrt(u_h1**2 + b_h1**2))
