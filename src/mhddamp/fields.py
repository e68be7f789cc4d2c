"""
Transforms between point values on the N^3 collocation grid and the packed
ball modes of :mod:`mhddamp.grid`: plain arrays, with the grid passed
beside them.

Transform normalization: coefficients are Fourier-series coefficients, i.e.
f(x) = sum_k c(k) exp(i k.x), so the k = 0 coefficient of a constant field c
equals c and forward/inverse transforms compose to the identity.  All norms in
:mod:`mhddamp.operators` are defined against this convention.

Fields are real, so the transforms are real-to-complex, on the half spectrum
k3 = 0..N/2.  They run as 1-D passes that skip the lines holding only modes
outside the ball |k| < R: every wavenumber component of a mode in the ball
is at most kc = ceil(R) - 1 in magnitude.  The inverse runs ifft_x, ifft_y
and irfft_z (the order irfftn uses, so its results are bitwise those of
irfftn, cut to the ball; only the signs of zeros can differ), the forward
rfft_zy (z, then y) and fft_x, so its results are bitwise those of the full
1-D passes in the order z, y, x, cut to the ball, and within round-off of
rfftn.  Every y and z line lies in one x-plane, so those passes run on
slabs of x-planes in :func:`slab_pass`, the one physical-space pass, with
the same results; the x passes run on the compact columns of
grid.column_shape, which hold the ball's rows.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os

import numpy as np

from .grid import GridSpec
from .operators import truncate_coeffs

HERMITIAN_TOL = 1e-12

# The transforms call scipy's compiled pocketfft kernel, pypocketfft,
# loaded from its file under scipy/fft/_pocketfft: importing scipy.fft for
# it would also import scipy's array-API layer and scipy.special, about
# 19 MB of resident memory in every process, and each call would pass
# through its dispatch layer.  The calls are the ones
# scipy.fft's 1-D functions make (axes as a tuple, out= for the in-place
# passes), so the results are bitwise theirs.  inorm 2 on the forward and 0
# on the inverse passes is norm="forward": the 1/N of each axis of the
# Fourier-series convention goes on the forward transform.
_KERNEL_SPEC = importlib.machinery.PathFinder.find_spec(
    "pypocketfft",
    [os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                  "fft", "_pocketfft")],
)
_pocketfft = importlib.util.module_from_spec(_KERNEL_SPEC)
_KERNEL_SPEC.loader.exec_module(_pocketfft)

# Threads of each kernel call, one value for the whole process: 1 unless a
# caller enters workers(count) (the CLI does, for --threads).
_FFT_WORKERS = 1


@contextlib.contextmanager
def workers(count: int):
    """Run the transforms on ``count`` threads inside the block."""
    global _FFT_WORKERS
    previous, _FFT_WORKERS = _FFT_WORKERS, count
    try:
        yield
    finally:
        _FFT_WORKERS = previous


def _rows(grid: GridSpec) -> tuple[slice, slice]:
    """The two index ranges |k| <= kc of an axis of the grid."""
    return slice(0, grid.kc + 1), slice(grid.n_modes - grid.kc, grid.n_modes)


def _x_lines(spectra: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Views of the x lines of stacked ``spectra`` that hold modes of the
    ball: all of compact columns (..., N, 2kc+1, kc+1), or the y rows
    |k2| <= kc of the columns k3 <= kc of a half spectrum (..., N, N, *)."""
    if spectra.shape[-3:] == grid.column_shape:
        return (spectra,)
    return tuple(spectra[..., r, : grid.kc + 1] for r in _rows(grid))


def rfft_zy(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """z and y passes of the forward transform of stacked real (..., c, N,
    N) grids; the y pass runs on the columns k3 <= kc only.  Returns the
    (..., c, N, N/2+1) result."""
    spectra = _pocketfft.r2c(values, (-1,), True, 2, None, _FFT_WORKERS)
    lines = spectra[..., : grid.kc + 1]
    _pocketfft.c2c(lines, (-2,), True, 2, lines, _FFT_WORKERS)
    return spectra


def fft_x(spectra: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x pass of the forward transform, in place, on the lines of the ball
    of z- and y-transformed ``spectra`` (see :func:`rfft_zy`); returns the
    packed (..., M) ball modes."""
    for lines in _x_lines(spectra, grid):
        _pocketfft.c2c(lines, (-3,), True, 2, lines, _FFT_WORKERS)
    return truncate_coeffs(spectra, grid)


def ifft_x(spectra: np.ndarray, grid: GridSpec) -> None:
    """x pass of the inverse transform, in place, on the lines of the ball
    of compact columns or of a half spectrum (..., N, N, *)."""
    for lines in _x_lines(spectra, grid):
        _pocketfft.c2c(lines, (-3,), False, 0, lines, _FFT_WORKERS)


def ifft_y(spectra: np.ndarray, grid: GridSpec) -> None:
    """y pass of the inverse transform, in place, on the columns k3 <= kc
    of x-transformed (..., c, N, *) ``spectra``."""
    lines = spectra[..., : grid.kc + 1]
    _pocketfft.c2c(lines, (-2,), False, 0, lines, _FFT_WORKERS)


def irfft_z(spectra: np.ndarray, n: int) -> np.ndarray:
    """z pass of the inverse transform: (..., N/2+1) -> (..., N) real."""
    return _pocketfft.c2r(spectra, (-1,), n, False, 0, None, _FFT_WORKERS)


def slab_pass(packed: np.ndarray, grid: GridSpec, work, body, grids: int = 0):
    """The physical-space pass over stacked packed (m, M) ball modes, one
    slab of ``work.width`` x-planes at a time.  Per slab, in slab order,
    ``body(x0, values, out)`` gets the new (m, c, N, N) real point values of
    the planes x0 .. x0+c-1, a temporary that is free once the body drops
    it, and ``out`` = work.products[:grids, :c] (None when ``grids`` is 0);
    it writes its grids of the same planes into ``out`` and returns its
    partial, any value.  Returns (packed (grids, M) modes of the grids, or
    None when ``grids`` is 0; the partials in slab order).

    ``work`` is a :class:`mhddamp.nonlinear.Workspace` of the grid, or an
    object with its ``staging``, ``width``, ``columns`` and, when ``grids``
    is not 0, ``products``.  The modes are scattered, after a zero fill,
    into the compact columns, or with one slab (``columns`` None) into
    staging[:m], where the inverse x pass runs.  With several slabs staging
    then holds one slab's ball rows, its rows between zeroed and its
    columns k3 > kc zero as allocated, for the inverse y and z passes; the
    forward z and y passes of ``out`` follow, and their ball rows go to the
    slab's planes of the columns, free once its values are made (with one
    slab, the kernel's output serves).  After the last slab the forward x
    pass runs there and the ball is gathered.  Callers add the partials
    from 0.0 in slab order: the builtin sum is compensated from Python 3.12
    on, so it would round differently there.
    """
    n, kc, m = grid.n_modes, grid.kc, len(packed)
    columns, staging = work.columns, work.staging
    if columns is None:
        spectra, index = staging[:m], grid.index
    else:
        spectra, index = columns[:m], grid.column_index
    spectra.fill(0.0)
    spectra.reshape(m, -1)[:, index] = packed
    ifft_x(spectra, grid)
    low, high = _rows(grid)
    forward, partials = None, []
    for x0 in range(0, n, work.width):
        slab = spectra[:, x0 : x0 + work.width]
        c = slab.shape[1]
        if columns is not None:
            rows = staging[:m, :c, :, : kc + 1]
            rows[..., low, :] = slab[..., : kc + 1, :]
            rows[..., kc + 1 : n - kc, :] = 0.0  # the previous slab's y pass wrote them
            rows[..., high, :] = slab[..., kc + 1 :, :]
            slab = staging[:m, :c]
        ifft_y(slab, grid)
        out = work.products[:grids, :c] if grids else None
        partials.append(body(x0, irfft_z(slab, n), out))
        if grids:
            forward = rfft_zy(out, grid)
            if columns is not None:
                columns[:grids, x0 : x0 + c, : kc + 1] = forward[..., low, : kc + 1]
                columns[:grids, x0 : x0 + c, kc + 1 :] = forward[..., high, : kc + 1]
                forward = columns[:grids]
    return None if forward is None else fft_x(forward, grid), partials


def hermitian_defect(coeffs: np.ndarray, grid: GridSpec) -> float:
    """Defect max |c(-k) - conj(c(k))| of stacked packed (..., M)
    coefficients over the plane k3 = 0, whose mirrors -k are packed too
    (the other self-conjugate plane, k3 = N/2, lies outside every ball):
    zero, to roundoff relative to max |c|, exactly for a real field."""
    plane = np.flatnonzero(grid.kz == 0)
    mirror = grid.position(np.stack([-grid.kx[plane], -grid.ky[plane], grid.kz[plane]], axis=-1))
    with np.errstate(over="ignore"):  # a defect beyond double range reads inf
        return float(np.max(np.abs(np.conj(coeffs[..., plane]) - coeffs[..., mirror]), initial=0.0))
