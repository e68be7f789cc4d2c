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
import os
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# The arrays of one trajectory's IF-RK4 stepper, as (name, count, layout):
# a "spectral" grid is (N, N, N/2+1) complex, a "columns" grid its columns
# k3 <= kc (N, N, kc+1), with kc = ceil(R) - 1 the largest wavenumber
# component in the ball, a "physical" grid (N, N, N) real, a "packed" array
# (M,) complex and a "table" (M,) real or int64, with M the number of modes
# in the ball |k| < R.  A "slab" is c x-planes (c, N, N) of a physical grid
# and a "spectral_slab" c x-planes (c, N, N/2+1) of a spectral one, with c
# = :func:`slab_width`.  :class:`mhddamp.nonlinear.Workspace` allocates
# exactly the WORKSPACE_GRIDS.
WORKSPACE_GRIDS = (
    ("staging", 6, "spectral"),    # zero but while an inverse transform runs in it
    ("columns", 11, "columns"),    # the forward z pass; absent with one slab
    ("products", 11, "slab"),      # T (5 entries), u x b and the damping
    ("stage", 6, "packed"),        # the stage state w = (u, b)
    ("scratch", 2, "packed"),
    ("ik", 3, "packed"),           # the multipliers i k_j
)
# The ball table of the workspace (:class:`BallTable`): ``index``,
# ``column_index`` and these.
BALL_TABLES = ("kx", "ky", "kz", "k_sq", "inv_k_sq", "parseval_weight")
# Held beside the workspace while a stage runs: the integrating factors E
# and E^2, the packed state and next state, which holds the running RK4 sum
# until the step ends, the last sampled state, unpacked to the half
# spectrum, and, per slab, scipy's outputs of the inverse (6 grids) and
# forward (11) z passes and the damping law's temporaries, then the
# tendency, gathered to the ball.
STEP_TRANSIENT_GRIDS = (
    ("factors", 2, "table"),
    ("state", 6, "packed"),
    ("next_state", 6, "packed"),
    ("sample", 6, "spectral"),
    ("inverse_output", 6, "slab"),
    ("damping", 3, "slab"),
    ("forward_output", 11, "spectral_slab"),
    ("tendency", 11, "packed"),
)
# Held beside the workspace while :func:`mhddamp.energy.ledger_row` runs on
# a sample, borrowing the workspace's staging array: the integrating
# factors, the packed state, the sample, the row's packed velocity and
# gradient batch, its full-size q = |u|^2, |grad u|^2 and |grad q|^2, and
# per slab scipy's inverse output and a temporary, or the forward transform
# of q.
LEDGER_GRIDS = (
    ("factors", 2, "table"),
    ("state", 6, "packed"),
    ("sample", 6, "spectral"),
    ("gradients", 9, "packed"),
    ("pointwise", 3, "physical"),
    ("inverse_output", 7, "slab"),
    ("q_spectrum", 1, "spectral"),
)
# The slab pass holds its "slab" and "spectral_slab" arrays for c x-planes
# at a time; c is the largest width, in equal slabs, whose arrays fit this
# many bytes.  Fixed, so a run computes the same sums on every host.
SLAB_BYTES = 8 * 2**20


def column_cutoff(radius: float) -> int:
    """kc = ceil(R) - 1: no wavenumber component of a mode in the ball
    |k| < R exceeds it in magnitude."""
    return math.ceil(radius) - 1


def _layout_bytes(n: int, m: int, radius: float, width: int) -> dict[str, int]:
    kc = column_cutoff(radius)
    return {
        "spectral": n * n * (n // 2 + 1) * 16,
        "columns": n * n * (kc + 1) * 16 if width < n else 0,
        "physical": n**3 * 8,
        "slab": width * n * n * 8,
        "spectral_slab": width * n * (n // 2 + 1) * 16,
        "packed": m * 16,
        "table": m * 8,
    }


def _slab_plane_bytes(n: int) -> int:
    """Bytes of the slab arrays of :data:`WORKSPACE_GRIDS` and
    :data:`STEP_TRANSIENT_GRIDS` per x-plane at N = ``n``."""
    plane = _layout_bytes(n, 0, 1.0, 1)
    return sum(
        count * plane[layout]
        for _, count, layout in WORKSPACE_GRIDS + STEP_TRANSIENT_GRIDS
        if layout in ("slab", "spectral_slab")
    )


def slab_width(n: int) -> int:
    """x-planes per slab of the physical-space pass at N = ``n``: n when
    the slab arrays of all n planes fit :data:`SLAB_BYTES`, else the width
    of the fewest equal slabs whose arrays do (the last slab may be
    narrower)."""
    fit = max(1, min(n, SLAB_BYTES // _slab_plane_bytes(n)))
    slabs = -(-n // fit)
    return -(-n // slabs)


def working_set_bytes(n: int, m: int, radius: float | None = None) -> int:
    """Bytes one trajectory holds at N = ``n`` with ``m`` modes in the ball
    of radius ``radius`` (default N/3): its workspace, its ball table and
    the grid's tables, and the larger of :data:`STEP_TRANSIENT_GRIDS` and
    :data:`LEDGER_GRIDS`."""
    size = _layout_bytes(n, m, n / 3.0 if radius is None else radius, slab_width(n))

    def total(grids):
        return sum(count * size[layout] for _, count, layout in grids)

    tables = (
        ("ball", 2 + len(BALL_TABLES), "table"),
        ("grid_tables", 1, "spectral"),  # the grid's real k_sq and inv_k_sq
    )
    return total(WORKSPACE_GRIDS + tables) + max(total(STEP_TRANSIENT_GRIDS), total(LEDGER_GRIDS))


def check_memory(need: int, what: str) -> None:
    """ValueError, naming ``what``, when ``need`` bytes exceed the physical
    memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


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

    A grid whose :func:`working_set_bytes` exceed the physical memory is
    rejected; one whose spectral and physical grids alone exceed it, before
    any array is built.
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
        what = f"stepping one trajectory at n_modes = {n}"
        check_memory(working_set_bytes(n, 0, radius), what)  # before any array is built

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
        check_memory(working_set_bytes(n, int(np.count_nonzero(keep)), radius), what)

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


class BallTable:
    """The modes of a grid's ball |k| < R, packed.

    ``index`` holds their flat positions in the (N, N, N/2+1) half spectrum,
    in C order (``np.flatnonzero(grid.keep_mask)``), ``column_index`` their
    positions, in the same order, in its columns k3 <= kc, (N, N, kc+1),
    and the attributes named in :data:`BALL_TABLES` hold the grid's tables
    of the same names at those modes, each of shape (M,).  Functions
    written against a grid's tables (``leray_project_coeffs``,
    ``viscous_symbol``, ``energy.spectral_sums``) therefore also run on
    packed (..., M) arrays when given a table in place of the grid.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.volume = grid.volume
        self.kc = column_cutoff(grid.truncation_radius)
        self.index = np.flatnonzero(grid.keep_mask)
        self.column_index = np.flatnonzero(grid.keep_mask[..., : self.kc + 1])
        for name in BALL_TABLES:
            value = np.broadcast_to(getattr(grid, name), grid.spectral_shape)[grid.keep_mask]
            setattr(self, name, value)

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        """The ball modes of (..., N, N, N/2+1) coefficients or of their
        (..., N, N, kc+1) columns, as a new C-contiguous (..., M) array."""
        index = self.column_index if coeffs.shape[-1] == self.kc + 1 else self.index
        return np.take(coeffs.reshape(coeffs.shape[:-3] + (-1,)), index, axis=-1)

    def unpack(self, packed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Packed (..., M) ball modes written into ``out``, a C-contiguous
        (..., N, N, N/2+1) array that is zero outside the ball, or into a new
        zeroed one; returns it."""
        if out is None:
            out = np.zeros(packed.shape[:-1] + self.grid.spectral_shape, dtype=packed.dtype)
        if not out.flags.c_contiguous:  # reshape would copy, not view
            raise ValueError("unpack writes only into a C-contiguous array")
        out.reshape(packed.shape[:-1] + (-1,))[..., self.index] = packed
        return out
