"""
Transforms between point values on the N^3 collocation grid and the packed
ball modes of :mod:`mhddamp.grid`, as the passes the solver streams by slabs
of x-planes: plain arrays, with the grid passed beside them.

Transform normalization: coefficients are Fourier-series coefficients, i.e.
f(x) = sum_k c(k) exp(i k.x), so the k = 0 coefficient of a constant field c
equals c and forward/inverse transforms compose to the identity.  All norms in
:mod:`mhddamp.operators` are defined against this convention.

Fields are real, so the transforms are real-to-complex; their spectral side
is the half spectrum k3 = 0..N/2, of which only the modes in the ball are
kept.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .grid import GridSpec
from .operators import truncate_coeffs

HERMITIAN_TOL = 1e-12


# The transforms use scipy.fft's default worker count, 1 unless a caller
# enters a scipy.fft.set_workers context (the CLI does, for --threads).
# norm="forward" puts the 1/N^3 of the Fourier-series convention on the
# forward transform.
#
# The 3-D transforms run as 1-D scipy.fft passes that skip the lines holding
# only modes outside the ball |k| < R: every wavenumber component of a mode
# in the ball is at most kc = ceil(R) - 1 in magnitude.  The passes are the
# ones rfftn/irfftn make, in the same order (x, then y, then the real z axis
# for the inverse; z, then x, then y for the forward) and with the same
# scaling, so the results are bitwise those of the full transforms, cut to
# the ball; only the signs of zeros can differ.  The inverse is made of
# ifft_x, ifft_y and irfft_z, the forward of rfft_z and fft_xy.  Every y and
# z line of the inverse and every z line of the forward lies in one x-plane,
# so those passes may run on slabs of x-planes (see x_slabs), with the same
# results.


def _rows(grid: GridSpec) -> tuple[slice, slice]:
    """The two index ranges |k| <= kc of an axis of the grid."""
    return slice(0, grid.kc + 1), slice(grid.n_modes - grid.kc, grid.n_modes)


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


def fft_xy(spectra: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x and y passes of the forward transform, in place, on the columns
    k3 <= kc of z-transformed (..., N, N, *) ``spectra`` (see
    :func:`rfft_z`); returns the packed (..., M) ball modes."""
    slab = spectra[..., : grid.kc + 1]  # holds every mode of the ball
    _fft.fft(slab, axis=-3, overwrite_x=True)
    for r in _rows(grid):
        _fft.fft(slab[..., r, :, :], axis=-2, overwrite_x=True)
    return truncate_coeffs(spectra, grid)


def ifft_x(spectra: np.ndarray, grid: GridSpec) -> None:
    """x pass of the inverse transform, in place, on the y rows |k2| <= kc
    of the columns k3 <= kc of (..., N, N, *) ``spectra``: the only lines
    that hold modes of the ball."""
    slab = spectra[..., : grid.kc + 1]
    for r in _rows(grid):
        _fft.ifft(slab[..., r, :], axis=-3, norm="forward", overwrite_x=True)


def ifft_y(spectra: np.ndarray, grid: GridSpec) -> None:
    """y pass of the inverse transform, in place, on the columns k3 <= kc
    of x-transformed (..., c, N, *) ``spectra``."""
    _fft.ifft(spectra[..., : grid.kc + 1], axis=-2, norm="forward", overwrite_x=True)


def irfft_z(spectra: np.ndarray, n: int) -> np.ndarray:
    """z pass of the inverse transform: (..., N/2+1) -> (..., N) real."""
    return _fft.irfft(spectra, n=n, axis=-1, norm="forward")


def x_slabs(packed: np.ndarray, grid: GridSpec, work):
    """Point values of stacked packed (m, M) ball modes, one slab of
    ``work.width`` x-planes at a time: yields (x0, values) with ``values``
    the new (m, c, N, N) real point values of the planes x0 .. x0+c-1.

    ``work`` is a :class:`mhddamp.nonlinear.Workspace` of the grid, or an
    object with its ``staging``, ``width`` and ``columns``.  The modes are
    scattered into columns[:m], or with one slab (``columns`` None) into
    staging[:m], filled with zeros first, and the x pass runs there.  With
    several slabs each slab's planes are then copied into the columns
    k3 <= kc of staging[:m], whose columns k3 > kc must be zero; no pass
    writes those.  The y and z passes run per slab.  A slab's planes of
    columns[:m] are not read again once it is yielded, so the caller may
    overwrite them, as the forward z pass of :func:`rfft_z` does.  A
    slab's values are not referenced by the generator, so a caller that
    drops them frees them.
    """
    n, m, columns, staging = grid.n_modes, len(packed), work.columns, work.staging
    if columns is None:
        spectra, index = staging[:m], grid.index
    else:
        spectra, index = columns[:m], grid.column_index
    spectra.fill(0.0)
    spectra.reshape(m, -1)[:, index] = packed
    ifft_x(spectra, grid)
    for x0 in range(0, n, work.width):
        slab = spectra[:, x0 : x0 + work.width]
        if columns is not None:
            c = slab.shape[1]
            staging[:m, :c, :, : grid.kc + 1] = slab
            slab = staging[:m, :c]
        ifft_y(slab, grid)
        yield x0, irfft_z(slab, n)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Defect max |c(-k) - conj(c(k))| of stacked coefficients in a
    checkpoint's layout: the planes k3 = 0 and k3 = N/2 of a half spectrum
    (..., N, N, N/2+1), or every mode of a full spectrum (..., N, N, N).

    Those are the stored modes whose mirror -k is stored too, so the defect
    is zero (to roundoff, relative to max |c|) exactly when the
    coefficients represent a real-valued physical field.  The mirror
    images are formed one k3 plane at a time, so no temporary is larger
    than a plane.
    """
    n = coeffs.shape[-2]
    rev = (-np.arange(n)) % n
    k3 = zip(range(n), rev) if coeffs.shape[-1] == n else ((0, 0), (n // 2, n // 2))
    defect = [
        np.max(np.abs(np.conj(coeffs[..., j_rev][..., rev, :][..., rev]) - coeffs[..., j]))
        for j, j_rev in k3
    ]
    return float(np.max(defect))
