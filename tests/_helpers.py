"""Shared builders and brute-force oracles for the test suite."""

import struct

import numpy as np

from mhddamp import SpectralVectorField, friedrichs_truncate, leray_project
from mhddamp.operators import sobolev_norm


def hermitian_symmetrize(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    rev = (-np.arange(n)) % n
    return 0.5 * (c + np.conj(c[..., rev, :, :][..., :, rev, :][..., :, :, rev]))


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """The stored half k3 = 0..N/2 of full (..., N, N, N) spectra."""
    n = c.shape[-1]
    return np.ascontiguousarray(c[..., : n // 2 + 1])


def full_spectrum(c: np.ndarray) -> np.ndarray:
    """Full (..., N, N, N) spectra of real fields from their stored half,
    filling k3 < 0 by c(-k) = conj(c(k))."""
    n = c.shape[-2]
    rev = (-np.arange(n)) % n
    full = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = c
    mirror = np.conj(c[..., rev, :, :][..., :, rev, :])
    full[..., n // 2 + 1:] = mirror[..., 1 : n // 2][..., ::-1]
    return full


def random_divfree(grid, seed, h1_norm=None, l2_norm=None, band=None, decay=2.0):
    """Smooth random divergence-free spectral field, optionally rescaled."""
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = half_spectrum(hermitian_symmetrize(c))
    c *= (1.0 + grid.k_sq) ** (-decay)
    c[:, 0, 0, 0] = 0.0
    if band is not None:
        c[:, grid.k_sq >= band * band] = 0.0
    s = leray_project(friedrichs_truncate(SpectralVectorField(c, grid)))
    if h1_norm is not None:
        s.coeffs *= h1_norm / sobolev_norm(s, 1.0)
    elif l2_norm is not None:
        s.coeffs *= l2_norm / sobolev_norm(s, 0.0)
    return s


def dft_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(N^6) DFT sum: c(k) = N^-3 sum_x f(x) exp(-i k.x).

    Independent of any FFT library; N = 8 keeps it affordable.  Returns the
    stored half spectrum.
    """
    n = values.shape[-1]
    x = 2.0 * np.pi * np.arange(n) / n
    j = np.arange(n)
    k1d = np.where(j <= n // 2, j, j - n)
    e1 = np.exp(-1j * np.outer(k1d, x))  # (k, x)
    return half_spectrum(np.einsum("kx,ly,mz,...xyz->...klm", e1, e1, e1, values) / n**3)


def ball_modes(radius: float):
    """Integer wavevectors with 0 < |k| or k = 0 inside the open ball."""
    r = int(np.floor(radius))
    out = []
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            for k3 in range(-r, r + 1):
                if k1 * k1 + k2 * k2 + k3 * k3 < radius * radius:
                    out.append((k1, k2, k3))
    return out


def convolution_oracle_vgradw(v: SpectralVectorField, w: SpectralVectorField) -> np.ndarray:
    """True (unaliased) convolution sum for v.grad w restricted to |k| < R.

    (v.grad w)^(k) = sum_{p+q=k} sum_j v_j(p) (i q_j) w(q); quadratic in the
    mode count of the ball, so meant for N = 8.  Sums over full spectra and
    returns the stored half.
    """
    grid = v.grid
    v_full = full_spectrum(v.coeffs)
    w_full = full_spectrum(w.coeffs)
    out = np.zeros((3,) + grid.shape, dtype=np.complex128)
    modes = ball_modes(grid.truncation_radius)
    radius_sq = grid.truncation_radius**2
    for p in modes:
        vp = v_full[:, p[0], p[1], p[2]]
        if not np.any(vp):
            continue
        for q in modes:
            wq = w_full[:, q[0], q[1], q[2]]
            if not np.any(wq):
                continue
            k = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
            if k[0] ** 2 + k[1] ** 2 + k[2] ** 2 >= radius_sq:
                continue
            coeff = 1j * (vp[0] * q[0] + vp[1] * q[1] + vp[2] * q[2])
            out[:, k[0], k[1], k[2]] += coeff * wq
    return half_spectrum(out)


def embed_coeffs(c_small: np.ndarray, grid_small, grid_big) -> np.ndarray:
    """Copy coefficients from a coarse grid into a finer one by wavenumber."""
    nb = grid_big.n_modes
    r = int(np.ceil(grid_small.truncation_radius))
    idx = np.arange(-r, r + 1)
    big = np.zeros((3, nb, nb, nb), dtype=np.complex128)
    ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
    big[:, ii, jj, kk] = full_spectrum(c_small)[:, ii, jj, kk]
    return half_spectrum(big)


def write_v1_checkpoint(path, state) -> None:
    """A version 1 checkpoint: the same header, full (N, N, N) spectra."""
    grid = state.grid
    header = struct.pack("<4sIqdd", b"MHDF", 1, grid.n_modes, grid.truncation_radius, state.t)
    arrays = full_spectrum(state.coeffs)
    path.write_bytes(header + arrays.astype("<c16").tobytes())


MALFORMED_CHECKPOINTS = (
    "five_bytes", "header_only", "huge_n", "truncated_payload", "trailing_bytes", "zero_n",
)


def malformed_checkpoint(good: bytes, case: str) -> bytes:
    """A well-formed checkpoint file broken in the named way."""
    header = 32  # magic, version, N, radius, time
    return {
        "five_bytes": good[:5],
        "header_only": good[:header],
        "huge_n": good[:8] + (10**6).to_bytes(8, "little") + good[16:],
        "truncated_payload": good[:-16],
        "trailing_bytes": good + b"\0",
        "zero_n": good[:8] + (0).to_bytes(8, "little") + good[16:header],
    }[case]
