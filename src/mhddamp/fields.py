"""
Transforms between point values on the N^3 collocation grid and
half-spectrum coefficients: plain arrays, with the grid passed beside them.

Transform normalization: coefficients are Fourier-series coefficients, i.e.
f(x) = sum_k c(k) exp(i k.x), so the k = 0 coefficient of a constant field c
equals c and forward/inverse transforms compose to the identity.  All norms in
:mod:`mhddamp.operators` are defined against this convention.

Fields are real, so only the half spectrum k3 = 0..N/2 is stored (see
:mod:`mhddamp.grid`) and the transforms are real-to-complex.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .grid import BallTable, GridSpec, column_cutoff

HERMITIAN_TOL = 1e-12


# The transforms use scipy.fft's default worker count, 1 unless a caller
# enters a scipy.fft.set_workers context (the CLI does, for --threads).
# norm="forward" puts the 1/N^3 of the Fourier-series convention on the
# forward transform.
#
# ``ball`` is the grid whose cutoff |k| < R the data respects, or its
# BallTable for data packed to the ball.  The 3-D transforms run as 1-D
# scipy.fft passes that skip the lines holding only modes outside the ball:
# every wavenumber component of a mode in the ball is at most
# kc = ceil(R) - 1 in magnitude.  The passes are the ones rfftn/irfftn make,
# in the same order (x, then y, then the real z axis for the inverse; z,
# then x, then y for the forward) and with the same scaling, so the results
# are bitwise those of the full transforms; only the signs of zeros can
# differ.  Each transform is split at its z pass: ifft_xy and irfft_z make
# the inverse, rfft_z and fft_xy the forward.  Every z line lies in one
# x-plane, so the z passes may run on slabs of x-planes (see x_slabs), with
# the same results.


def _ball_lines(ball: GridSpec | BallTable) -> tuple[int, tuple[slice, slice]]:
    """kc and the two index ranges |k| <= kc of an axis of the grid."""
    grid = ball.grid if isinstance(ball, BallTable) else ball
    n = grid.n_modes
    kc = column_cutoff(grid.truncation_radius)
    return kc, (slice(0, kc + 1), slice(n - kc, n))


def rfft_z(values: np.ndarray, columns: np.ndarray | None = None, x0: int = 0) -> np.ndarray:
    """z pass of the forward transform of stacked real (..., c, N, N)
    grids, scaled by 1/N^3 as rfftn scales.

    Without ``columns`` returns the (..., c, N, N/2+1) result.  With
    ``columns``, a (..., N, N, kc+1) array, writes its columns k3 <= kc into
    the x-planes x0 .. x0+c-1 of columns[:len(values)] and returns that.
    """
    n = values.shape[-1]
    spectra = _fft.rfft(values, axis=-1)
    if columns is None:
        spectra *= 1.0 / n**3
        return spectra
    columns = columns[: len(values)]
    dest = columns[..., x0 : x0 + values.shape[-3], :, :]
    np.multiply(spectra[..., : columns.shape[-1]], 1.0 / n**3, out=dest)
    return columns


def fft_xy(spectra: np.ndarray, ball: GridSpec | BallTable) -> np.ndarray:
    """x and y passes of the forward transform, in place, on the columns
    k3 <= kc of z-transformed (..., N, N, *) ``spectra`` (see
    :func:`rfft_z`).

    With a grid ``ball`` returns ``spectra`` times ``ball.keep_mask``; with
    a :class:`BallTable` the packed (..., M) ball modes.
    """
    kc, rows = _ball_lines(ball)
    slab = spectra[..., : kc + 1]  # holds every mode of the ball
    _fft.fft(slab, axis=-3, overwrite_x=True)
    for r in rows:
        _fft.fft(slab[..., r, :, :], axis=-2, overwrite_x=True)
    if isinstance(ball, BallTable):
        return ball.pack(spectra)
    spectra *= ball.keep_mask  # whole-array passes beat strided ones on the slab
    return spectra


def fft_grid(values: np.ndarray, ball: GridSpec | BallTable) -> np.ndarray:
    """Real-to-complex DFT of stacked real grids -> half-spectrum
    Fourier-series coefficients.

    With a grid ``ball`` the result is truncated to |k| < R, equal to the
    full transform times ``ball.keep_mask``; with a :class:`BallTable` it is
    the (..., M) packed ball modes of the full transform.  Both hold for any
    finite input.
    """
    return fft_xy(rfft_z(values), ball)


def ifft_xy(
    coeffs: np.ndarray, ball: GridSpec | BallTable, staging: np.ndarray | None = None
) -> np.ndarray:
    """x and y passes of the inverse transform; returns the array they ran
    in, whose z pass (:func:`irfft_z`) gives the point values.

    With a grid ``ball`` the half-spectrum ``coeffs`` must vanish outside
    |k| < R; the passes run in a copy.  With a :class:`BallTable` ``coeffs``
    holds packed (..., M) ball modes, scattered into ``staging``, a
    C-contiguous (..., N, N, N/2+1) array that is zero outside the ball (a
    new zeroed one when None), where the passes run.  ``coeffs`` is left
    unchanged.
    """
    kc, rows = _ball_lines(ball)
    if isinstance(ball, BallTable):
        work = ball.unpack(coeffs, staging)
    else:
        work = coeffs.copy()
    slab = work[..., : kc + 1]
    for r in rows:
        _fft.ifft(slab[..., r, :], axis=-3, norm="forward", overwrite_x=True)
    _fft.ifft(slab, axis=-2, norm="forward", overwrite_x=True)
    return work


def irfft_z(spectra: np.ndarray, n: int) -> np.ndarray:
    """z pass of the inverse transform: (..., N/2+1) -> (..., N) real."""
    return _fft.irfft(spectra, n=n, axis=-1, norm="forward")


def ifft_grid(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half-spectrum Fourier-series coefficients, which must vanish outside
    the ball |k| < R of ``grid``, -> real point values on the N^3 grid.
    Only the Hermitian part of the self-conjugate planes counts.  Packed
    ball modes go through :func:`x_slabs`.
    """
    return irfft_z(ifft_xy(coeffs, grid), grid.n_modes)


def x_slabs(packed: np.ndarray, ball: BallTable, staging: np.ndarray, width: int):
    """Point values of packed (..., M) ball modes, one slab of ``width``
    x-planes at a time: yields (x0, values) with ``values`` the new
    (..., c, N, N) real point values of the planes x0 .. x0+c-1.

    The modes are scattered into ``staging``, a C-contiguous all-zero
    (..., N, N, N/2+1) array, transformed there along x and y, and the
    z pass runs per slab; ``staging`` is zero again once the generator is
    exhausted or closed.  A slab's values are not referenced by the
    generator, so a caller that drops them frees them.
    """
    n = ball.grid.n_modes
    work = ifft_xy(packed, ball, staging)
    try:
        for x0 in range(0, n, width):
            yield x0, irfft_z(work[..., x0 : x0 + width, :, :], n)
    finally:
        work.fill(0.0)  # a whole-array fill beats a strided one on the slab


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Relative defect max |c(-k) - conj(c(k))| / max |c| of stacked
    half-spectrum coefficients (..., N, N, N/2+1) on the planes k3 = 0 and
    k3 = N/2.

    Those planes hold both k and -k; every other stored mode has its mirror
    outside the half spectrum, so the defect is zero (to roundoff) exactly
    when the coefficients represent a real-valued physical field.
    """
    n = coeffs.shape[-2]
    rev = (-np.arange(n)) % n
    planes = coeffs[..., [0, n // 2]]
    mirrored = planes[..., rev, :, :][..., rev, :]
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.conj(mirrored) - planes))) / scale
