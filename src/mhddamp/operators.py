"""
Fourier-space operators: truncation, Leray projection, derivatives and norms.

Everything here is exact coefficient algebra; no transforms are performed.
Integrals follow the convention of :mod:`mhddamp.fields`: for a field with
coefficients c(k), the squared L2 norm over the box is (2*pi)^3 sum |c(k)|^2,
taken over the stored half spectrum with the grid's ``parseval_weight``.
"""

from __future__ import annotations

import numpy as np

from .fields import SpectralVectorField
from .grid import GridSpec


def friedrichs_truncate(s: SpectralVectorField, radius: float | None = None) -> SpectralVectorField:
    """Zero all coefficients with |k| >= radius (default: the grid cutoff).

    Idempotent; a radius beyond the Nyquist ball leaves the field unchanged.
    """
    if radius is None:
        mask = s.grid.keep_mask
    else:
        if radius <= 0:
            raise ValueError("truncation radius must be positive")
        mask = s.grid.k_sq < radius * radius
    return SpectralVectorField(s.coeffs * mask, s.grid)


def truncate_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Raw-array form of :func:`friedrichs_truncate` at the grid cutoff."""
    return coeffs * grid.keep_mask


def leray_project(s: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: c(k) -> c(k) - k (k.c)/|k|^2.

    The k = 0 mode passes through unchanged (a constant field is
    divergence-free).  Idempotent and self-adjoint for the discrete inner
    product.
    """
    return SpectralVectorField(leray_project_coeffs(s.coeffs.copy(), s.grid), s.grid)


def leray_project_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Raw-array form of :func:`leray_project`; returns the projection, made
    in place when ``coeffs`` is C-contiguous.  ``coeffs`` may stack m vector
    fields, (3 m, N, N, N/2+1) or (m, 3, N, N, N/2+1); each is projected."""
    c = coeffs.reshape((-1, 3) + grid.spectral_shape)  # a view of a contiguous coeffs
    k_dot = grid.kx * c[:, 0] + grid.ky * c[:, 1] + grid.kz * c[:, 2]
    k_dot *= grid.inv_k_sq  # zero at k = 0: mean mode untouched
    c[:, 0] -= grid.kx * k_dot
    c[:, 1] -= grid.ky * k_dot
    c[:, 2] -= grid.kz * k_dot
    return c.reshape(coeffs.shape)


def gradient(s: SpectralVectorField) -> np.ndarray:
    """Spectral gradient tensor g[i, j] = coefficients of d s_i / d x_j.

    Shape (3, 3, N, N, N/2+1), complex.
    """
    g = np.empty((9,) + s.grid.spectral_shape, dtype=np.complex128)
    return gradient_coeffs(s.coeffs, s.grid, g).reshape((3, 3) + s.grid.spectral_shape)


def gradient_coeffs(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray) -> np.ndarray:
    """Write the derivative coefficients i k_j c_i of each component c_i of
    ``coeffs`` into out[3 i + j]; ``out`` holds 3 len(coeffs) grids, often a
    slice of a transform batch."""
    for i, c in enumerate(coeffs):
        for j, k in enumerate((grid.kx, grid.ky, grid.kz)):
            np.multiply(1j * k, c, out=out[3 * i + j])
    return out


def divergence(s: SpectralVectorField) -> np.ndarray:
    """Spectral scalar div(s) = i k . c(k), shape (N, N, N/2+1)."""
    return 1j * (s.grid.kx * s.coeffs[0] + s.grid.ky * s.coeffs[1] + s.grid.kz * s.coeffs[2])


def laplacian(s: SpectralVectorField, nu_h: float = 1.0, nu_v: float = 1.0) -> SpectralVectorField:
    """Anisotropic viscous operator: multiply by -(nu_h (k1^2+k2^2) + nu_v k3^2).

    With nu_h = nu_v = 1 this is the full Laplacian.
    """
    sym = viscous_symbol(s.grid, nu_h, nu_v)
    return SpectralVectorField(-sym * s.coeffs, s.grid)


def viscous_symbol(grid: GridSpec, nu_h: float, nu_v: float) -> np.ndarray:
    """Nonnegative multiplier nu_h (k1^2 + k2^2) + nu_v k3^2, shape (N, N, N/2+1)."""
    return nu_h * (grid.kx**2 + grid.ky**2) + nu_v * grid.kz**2


# Inner products and norms ------------------------------------------------


def inner_l2(a: SpectralVectorField, b: SpectralVectorField) -> float:
    """L2 inner product over the box, (2*pi)^3 sum Re(c_a . conj(c_b))."""
    g = a.grid
    re = a.coeffs.real * b.coeffs.real + a.coeffs.imag * b.coeffs.imag
    return g.volume * float(np.sum(g.parseval_weight * re))


def l2_norm_sq(a: SpectralVectorField) -> float:
    return weighted_sum_sq(a.coeffs, 1.0, a.grid)


def weighted_sum_sq(coeffs: np.ndarray, weight: np.ndarray | float, grid: GridSpec) -> float:
    """(2*pi)^3 sum_k weight(k) |c(k)|^2 over all wavenumbers, accumulated
    over the leading axes of ``coeffs``."""
    mag = coeffs.real**2 + coeffs.imag**2
    return grid.volume * float(np.sum(grid.parseval_weight * weight * mag))


def sobolev_norm(s: SpectralVectorField, order: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order ``order``.

    Inhomogeneous: weight (1 + |k|^2)^order; order 0 gives the L2 norm.
    Homogeneous: weight |k|^(2*order) with the k = 0 term omitted; for
    negative orders a nonzero mean mode is rejected (the norm is undefined).
    """
    g = s.grid
    if homogeneous:
        if order < 0:
            mean_amp = float(np.max(np.abs(s.coeffs[:, 0, 0, 0])))
            scale = float(np.max(np.abs(s.coeffs)))
            if mean_amp > 1e-14 * max(scale, 1e-300):
                raise ValueError(
                    "homogeneous norm of negative order requires a zero-mean field"
                )
        with np.errstate(divide="ignore"):
            weight = np.where(g.k_sq > 0, g.k_sq**order, 0.0)
    else:
        weight = (1.0 + g.k_sq) ** order
    return float(np.sqrt(weighted_sum_sq(s.coeffs, weight, g)))


def divergence_l2(s: SpectralVectorField) -> float:
    """L2 norm of div(s) over the box."""
    return float(np.sqrt(weighted_sum_sq(divergence(s), 1.0, s.grid)))


def h1_norm_pair(w: np.ndarray, grid: GridSpec) -> float:
    """Inhomogeneous H1 norm sqrt(||u||_H1^2 + ||b||_H1^2) of the pair
    w = (u, b), from its stacked (6, N, N, N/2+1) coefficients."""
    u_h1, b_h1 = (sobolev_norm(SpectralVectorField(f, grid), 1.0) for f in np.split(w, 2))
    return float(np.sqrt(u_h1**2 + b_h1**2))
