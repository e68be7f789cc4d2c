"""
Periodic-box spectral grid: wavenumbers, the truncation ball and its tables.

The box is [0, 2*pi)^3 with N collocation points per axis.  Wavenumbers are
integers k = (k1, k2, k3) with ki in {-N/2+1, ..., N/2}.  A single spherical
cutoff |k| < R serves both as the Galerkin truncation and as the dealias rule:
with the default R = dealias_fraction * N/2 = N/3, quadratic products of
fields supported inside the ball are alias-free on the retained modes.

Fields are real, so their coefficients satisfy c(-k) = conj(c(k)) and only
the half spectrum k3 in {0, ..., N/2}, of shape (N, N, N/2+1), needs to be
known.  The solver keeps less: the M modes of the half spectrum inside the
ball, packed, in C order, as (..., M) arrays; a trajectory holds the half
spectrum only to transform (see :data:`WORKSPACE_GRIDS`).  A sum
of |c(k)|^2 over all wavenumbers is the sum over the packed modes weighted by
``parseval_weight``: 1 on the self-conjugate plane k3 = 0, whose mirror
images are packed too, and 2 elsewhere, where each packed mode stands for
itself and its unpacked mirror.  (The other self-conjugate plane, k3 = N/2,
lies outside every ball R <= N/2.)
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

TWO_PI = 2.0 * np.pi

# The arrays of one trajectory's IF-RK4 stepper, as (name, count, layout):
# a "columns" grid is the compact block :func:`column_shape` (N, 2kc+1,
# kc+1) of a complex half spectrum (N, N, N/2+1): its y rows |k2| <= kc of
# its columns k3 <= kc, with kc = ceil(R) - 1 the largest wavenumber
# component in the ball; a "packed" array is (M,) complex and a "table"
# (M,) real or int64, with M the number of modes in the ball |k| < R.  A
# "slab" is c x-planes (c, N, N) of a real physical grid and a
# "spectral_slab" c x-planes (c, N, N/2+1) of a half spectrum, with c =
# :func:`slab_width`.  :class:`mhddamp.nonlinear.Workspace` allocates
# exactly the WORKSPACE_GRIDS.  With several slabs both transforms run
# their x pass in "columns", the inverse its y and z passes in "staging"
# and the forward its z and y passes in the FFT kernel's output of each
# slab; with one slab "staging" holds the whole half spectrum and
# "columns" is absent.
WORKSPACE_GRIDS = (
    ("staging", 6, "spectral_slab"),  # zero at k3 > kc with several slabs
    ("columns", 11, "columns"),    # both transforms' x passes; absent with one slab
    ("products", 11, "slab"),      # T (5 entries), u x b and the damping
    ("stage", 6, "packed"),        # the stage state w = (u, b)
    ("scratch", 2, "packed"),
    ("ik", 3, "packed"),           # the multipliers i k_j
)
# Held beside the workspace while a stage runs: the integrating factors E
# and E^2, the packed state and next state, which holds the running RK4 sum
# until the step ends, and, per slab, the FFT kernel's outputs of the
# inverse (6 grids) and forward (11) z passes and the damping law's
# temporaries, then the tendency, gathered to the ball.  The last sampled
# state is the packed state of an earlier step.
STEP_TRANSIENT_GRIDS = (
    ("factors", 2, "table"),
    ("state", 6, "packed"),
    ("next_state", 6, "packed"),
    ("inverse_output", 6, "slab"),
    ("damping", 3, "slab"),
    ("forward_output", 11, "spectral_slab"),
    ("tendency", 11, "packed"),
)
# The slab pass holds its "slab" and "spectral_slab" arrays for c x-planes
# at a time; c is the largest width, in equal slabs, whose planes fit this
# many bytes, each counted as :func:`_slab_plane_bytes`.  2 MiB is the L2
# cache of the 2-core Xeon host this was measured on: one slab's planes
# fit it, which at N = 32 and 64 cut a run's peak RSS by 6 and 3 MB at
# the same step time.  Fixed, not read from the host, so a run computes
# the same sums on every host.
SLAB_BYTES = 2 * 2**20


def column_cutoff(radius: float) -> int:
    """kc = ceil(R) - 1: no wavenumber component of a mode in the ball
    |k| < R exceeds it in magnitude."""
    return math.ceil(radius) - 1


def column_shape(n: int, radius: float) -> tuple[int, int, int]:
    """Shape (N, 2kc+1, kc+1) of the compact columns of a half spectrum
    (N, N, N/2+1) at N = ``n``: its y rows 0..kc, then N-kc..N-1, of its
    columns k3 <= kc, with kc = :func:`column_cutoff` (``radius``).  They
    hold every mode of the ball."""
    kc = column_cutoff(radius)
    return (n, 2 * kc + 1, kc + 1)


def _layout_bytes(n: int, m: int, radius: float, width: int) -> dict[str, int]:
    return {
        "columns": math.prod(column_shape(n, radius)) * 16 if width < n else 0,
        "slab": width * n * n * 8,
        "spectral_slab": width * n * (n // 2 + 1) * 16,
        "packed": m * 16,
        "table": m * 8,
    }


def _slab_plane_bytes(n: int) -> int:
    """Bytes per x-plane at N = ``n`` that set the slab width: 248 N^2 +
    176 N, what the slab arrays of :data:`WORKSPACE_GRIDS` and
    :data:`STEP_TRANSIENT_GRIDS` but staging held per plane when the width
    was fixed (20 real grids and 11 half spectra).  Frozen, not summed from
    those tables: the slab sums of a run, hence its artifacts, depend on
    the width, which must not move when the memory model does."""
    return 248 * n * n + 176 * n


def slab_width(n: int) -> int:
    """x-planes per slab of the physical-space pass at N = ``n``: n when
    all n planes fit :data:`SLAB_BYTES`, else the width of the fewest equal
    slabs whose planes do (the last slab may be narrower)."""
    fit = max(1, min(n, SLAB_BYTES // _slab_plane_bytes(n)))
    slabs = -(-n // fit)
    return -(-n // slabs)


def working_set_bytes(n: int, m: int, radius: float | None = None) -> int:
    """Bytes one trajectory holds at N = ``n`` with ``m`` modes in the ball
    of radius ``radius`` (default N/3): its workspace, the grid's tables
    and :data:`STEP_TRANSIENT_GRIDS`.  A ledger row, which borrows the
    workspace between steps, holds less than a stage;
    ``tests/test_memory.py`` holds it to that."""
    size = _layout_bytes(n, m, n / 3.0 if radius is None else radius, slab_width(n))
    # index, column_index, kx, ky, kz, k_sq, inv_k_sq and parseval_weight
    tables = (("tables", 8, "table"),)
    return sum(
        count * size[layout] for _, count, layout in WORKSPACE_GRIDS + tables + STEP_TRANSIENT_GRIDS
    )


def check_memory(need: int, what: str) -> None:
    """ValueError, naming ``what``, when ``need`` bytes exceed the physical
    memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        need = need if need <= sys.float_info.max else math.inf  # an int beyond double range
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


class ConfigError(ValueError):
    """An input that is not allowed, in one line that names its field."""


# The kind and bounds of one input leaf.  A kind with an "s" added ("reals",
# "ints", "names") is a list or tuple of that kind.  A number is > gt, >= ge
# and <= le, each where given; nonempty bars an empty string or list, and
# optional admits None.  No kind admits a bool.
Leaf = namedtuple("Leaf", "kind gt ge le choices nonempty optional",
                  defaults=(None, None, None, (), False, False))
_KINDS = {  # kind -> (test of one value, what the value is)
    # abs(): not NaN, not infinite, and not an integer beyond double range
    "real": (lambda v: isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max,
             "a finite number"),
    "int": (lambda v: isinstance(v, numbers.Integral), "an integer"),
    "even": (lambda v: isinstance(v, numbers.Integral) and v % 2 == 0, "an even integer"),
    "str": (lambda v: isinstance(v, str), "a {nonempty}string"),
    "name": (lambda v: isinstance(v, str), "one of {choices}"),
}


def leaf(kind: str, default=MISSING, **bounds):
    """A dataclass field checked by :func:`check_fields` as a :data:`Leaf`
    of ``kind`` and ``bounds``; a default of None admits None."""
    spec = Leaf(kind, optional=default is None, **bounds)
    return field(default=default, metadata={"leaf": spec})


def leaves(cls) -> dict:
    """The table of a dataclass: name -> Leaf of each field made by :func:`leaf`."""
    return {f.name: f.metadata["leaf"] for f in fields(cls) if "leaf" in f.metadata}


def _fits(value, spec: Leaf, kind: str) -> bool:
    if kind.endswith("s"):
        return (isinstance(value, (list, tuple)) and bool(value or not spec.nonempty)
                and all(_fits(item, spec, kind[:-1]) for item in value))
    return (not isinstance(value, bool) and _KINDS[kind][0](value)
            and not (spec.nonempty and value == "") and (not spec.choices or value in spec.choices)
            and (spec.gt is None or value > spec.gt) and (spec.ge is None or value >= spec.ge)
            and (spec.le is None or value <= spec.le))


def check_leaf(value, spec: Leaf, name: str, context: str = "") -> None:
    """ConfigError, naming ``context`` and the leaf ``name``, unless
    ``value`` is of the kind of ``spec`` and within its bounds."""
    if (value is None and spec.optional) or _fits(value, spec, spec.kind):
        return
    bounds = " and ".join(f"{symbol} {bound}" for symbol, bound in zip(
        (">", ">=", "<="), (spec.gt, spec.ge, spec.le)) if bound is not None)
    what = f"{_KINDS[spec.kind.removesuffix('s')][1]} {bounds}".rstrip()
    what = ("a {nonempty}list, each " if spec.kind.endswith("s") else "") + what
    what = what.format(nonempty="nonempty " * spec.nonempty, choices=spec.choices)
    raise ConfigError(f"{context + ': ' if context else ''}{name} must be {what}"
                      f"{' or null' if spec.optional else ''}, got {value!r}")


def check_fields(source, table: dict | None = None, context: str = "") -> None:
    """:func:`check_leaf` of each leaf of ``table`` (name -> Leaf) in the
    dict ``source``, or of each leaf of the dataclass ``source``."""
    if table is None:
        table, source = leaves(source), vars(source)
    for name, spec in table.items():
        check_leaf(source[name], spec, name, context)


@dataclass(frozen=True)
class GridSpec:
    """
    Cubic N x N x N spectral grid, N = ``n_modes`` points per axis, on the
    periodic box of side ``box_length`` = 2*pi.  Truncating operations drop
    the modes |k| >= R = ``truncation_radius``, by default the dealias rule's
    ``dealias_fraction`` * N/2.  Each field is a :func:`leaf`; R <= N/2.

    The grid holds the integer wavenumbers ``k1d`` of one axis, in FFT
    order, kc = :func:`column_cutoff` (R), ``column_shape`` =
    :func:`column_shape` (N, R), and (M,) tables of the M modes of
    the ball |k| < R in C order: ``index`` and ``column_index``, their flat
    positions in the half spectrum (N, N, N/2+1) and in its compact columns
    (N, 2kc+1, kc+1); ``kx``, ``ky``, ``kz`` and ``k_sq`` = |k|^2;
    ``inv_k_sq`` = 1/|k|^2, 0 at k = 0; and ``parseval_weight``.  The k = 0
    mode is the first.

    A grid whose :func:`working_set_bytes` exceed the physical memory is
    rejected; one whose spectral and physical grids alone exceed it, before
    any array is built.
    """

    n_modes: int = leaf("even", ge=8, le=2**20)  # one real grid is 8 EiB at the bound
    box_length: float = leaf("real", ge=TWO_PI - 1e-14, le=TWO_PI + 1e-14, default=TWO_PI)
    truncation_radius: float | None = leaf("real", gt=0, default=None)
    dealias_fraction: float = leaf("real", gt=0, le=1, default=2.0 / 3.0)

    def __post_init__(self) -> None:
        check_fields(self)
        n, radius = self.n_modes, self.truncation_radius
        if radius is None:
            radius = self.dealias_fraction * n / 2.0
        elif radius > n / 2.0:
            raise ValueError(f"truncation_radius must be <= N/2 = {n // 2}, got {radius!r}")
        object.__setattr__(self, "truncation_radius", float(radius))
        what = f"stepping one trajectory at n_modes = {n}"
        check_memory(working_set_bytes(n, 0, radius), what)  # before any array is built

        # Integer wavenumbers; the Nyquist slot at index N/2 is stored as +N/2.
        # No component of a mode in the ball exceeds kc in magnitude, so the
        # ball is found among the compact columns; their rows map in order
        # to the half spectrum's, so C order is kept.
        j = np.arange(n)
        k1d = np.where(j <= n // 2, j, j - n).astype(np.float64)
        kc, columns = column_cutoff(radius), column_shape(n, radius)
        rows = np.concatenate([j[: kc + 1], j[n - kc :]])
        k_sq = k1d[:, None, None] ** 2 + k1d[rows, None] ** 2 + k1d[: kc + 1] ** 2
        column_index = np.flatnonzero(k_sq < radius * radius)
        i1, i2, i3 = np.unravel_index(column_index, columns)
        i2 = rows[i2]
        kx, ky, kz = k1d[i1], k1d[i2], k1d[i3]
        k_sq = kx * kx + ky * ky + kz * kz
        inv_k_sq = np.zeros_like(k_sq)
        nz = k_sq > 0
        inv_k_sq[nz] = 1.0 / k_sq[nz]
        object.__setattr__(self, "kc", kc)
        object.__setattr__(self, "column_shape", columns)
        for name, value in (
            ("k1d", k1d),
            ("index", (i1 * n + i2) * (n // 2 + 1) + i3),
            ("column_index", column_index),
            ("kx", kx),
            ("ky", ky),
            ("kz", kz),
            ("k_sq", k_sq),
            ("inv_k_sq", inv_k_sq),
            ("parseval_weight", np.where(kz == 0, 1.0, 2.0)),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        check_memory(working_set_bytes(n, k_sq.size, radius), what)

    # Derived scalars -----------------------------------------------------

    @property
    def cell_volume(self) -> float:
        """Quadrature weight (2*pi / N)^3 of one collocation cell."""
        return (self.box_length / self.n_modes) ** 3

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
        """Shape (N, N, N/2+1) of one half spectrum: a field of a
        checkpoint file, or of a one-slab inverse transform's staging
        array."""
        return (self.n_modes, self.n_modes, self.n_modes // 2 + 1)
