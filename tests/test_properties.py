"""Property tests: Parseval and round trips on the packed ball, the
ball-pruned transforms against scipy's full ones (the forward against its
1-D passes in the solver's order, and against rfftn to round-off) and each
pass against scipy.fft's 1-D call at 1 and 2 workers, seen in
the half spectrum and on the packed ball, the grid's ball tables, the Leray
projector's algebra, ledger rows against a full-size oracle, and random
bytes fed to the checkpoint reader."""

import contextlib
import io
import struct
import tempfile
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.fft
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhddamp import (
    DampingSpec,
    GridSpec,
    InitialCondition,
    SolverConfig,
    ledger_row,
    load_checkpoint,
    sobolev_norm,
)
from mhddamp.cli import ExperimentConfig, main, save_config
from mhddamp import fields
from mhddamp.fields import fft_x, ifft_x, ifft_y, irfft_z, rfft_zy, slab_pass
from mhddamp.grid import ball_size
from mhddamp.operators import truncate_coeffs

from _helpers import (
    fft_grid,
    half_tables,
    ifft_grid,
    inner_l2,
    ledger_row_oracle,
    leray,
    pair_state,
    random_divfree,
    slab_planes,
    unpack,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None)
DERANDOMIZED = settings(PROPERTY, derandomize=True)
GRIDS = {n: GridSpec(n_modes=n) for n in (8, 10, 16)}

seeds = st.integers(0, 2**32 - 1)
sizes = st.sampled_from(sorted(GRIDS))


def real_field(seed: int, n: int, nyquist: float) -> np.ndarray:
    """Random real (3, N, N, N) values plus a Nyquist checkerboard along
    every axis, which lives on the stored plane k3 = N/2 and the edges
    k1, k2 = N/2."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)
    checker = (-1.0) ** (j[:, None, None] + j[None, :, None] + j[None, None, :])
    return rng.standard_normal((3, n, n, n)) + nyquist * checker


def random_coeffs(seed: int, grid: GridSpec) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.index.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(seed=seeds, n=sizes, nyquist=st.floats(-3.0, 3.0))
def test_parseval_matches_collocation_quadrature(seed, n, nyquist):
    # on the band-limited part of a real field, which the packed modes hold
    grid = GRIDS[n]
    s = fft_grid(real_field(seed, n, nyquist), grid)
    values = ifft_grid(s, grid)
    quadrature = float(np.sum(values**2)) * grid.cell_volume
    assert abs(sobolev_norm(s, grid, 0.0) ** 2 - quadrature) <= 1e-12 * quadrature


@PROPERTY
@given(seed=seeds, n=sizes, nyquist=st.floats(-3.0, 3.0))
def test_transform_round_trip(seed, n, nyquist):
    # the coefficients of a real field, cut to the ball, survive the pruned
    # inverse and forward transforms
    grid = GRIDS[n]
    coeffs = fft_grid(real_field(seed, n, nyquist), grid)
    values = ifft_grid(coeffs, grid)
    assert values.dtype == np.float64
    back = fft_grid(values, grid)
    assert np.max(np.abs(back - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def ball_grid(n: int, radius: str) -> GridSpec:
    """The grid of size n with the default cutoff, R = 1.5 or R = N/2."""
    return {"default": GRIDS[n], "1.5": GridSpec(n, truncation_radius=1.5),
            "N/2": GridSpec(n, truncation_radius=n / 2)}[radius]


radii = st.sampled_from(["default", "1.5", "N/2"])
stacks = st.integers(1, 4)


@PROPERTY
@given(seed=seeds, n=sizes, radius=radii, m=stacks)
def test_pruned_inverse_equals_irfftn(seed, n, radius, m):
    grid = ball_grid(n, radius)
    coeffs = ball_stack(seed, grid, m)
    packed = truncate_coeffs(coeffs, grid)
    before = packed.copy()
    got = ifft_grid(packed, grid)
    assert np.array_equal(got, scipy.fft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), norm="forward"))
    assert packed.tobytes() == before.tobytes()


def forward_passes(values: np.ndarray) -> np.ndarray:
    """The full 1-D passes of the forward transform of stacked real (..., N,
    N, N) values in the solver's order: rfft along z, then fft along y,
    then along x, each with norm="forward"."""
    spectra = scipy.fft.rfft(values, axis=-1, norm="forward")
    spectra = scipy.fft.fft(spectra, axis=-2, norm="forward")
    return scipy.fft.fft(spectra, axis=-3, norm="forward")


def assert_forward(got: np.ndarray, values: np.ndarray, grid: GridSpec) -> None:
    """``got``, packed ball modes of ``values``, equals the full forward
    passes on the ball, and rfftn there to 1e-14 of the largest |c|."""
    keep = half_tables(grid).keep_mask
    want = forward_passes(values)[..., keep]
    assert np.array_equal(got, want)
    full = scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")[..., keep]
    assert np.max(np.abs(got - full)) <= 1e-14 * np.max(np.abs(full))


def compact(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The compact columns ``grid.column_shape`` of stacked half spectra:
    their y rows 0..kc and N-kc..N-1 of their columns k3 <= kc."""
    kc, n = grid.kc, grid.n_modes
    columns = half[..., : kc + 1]
    return np.concatenate([columns[..., : kc + 1, :], columns[..., n - kc :, :]], axis=-2)


@PROPERTY
@given(seed=seeds, n=sizes, radius=radii, m=stacks)
def test_pruned_forward_equals_truncated_rfftn(seed, n, radius, m):
    # exact for any finite input, band-limited or not
    grid = ball_grid(n, radius)
    values = np.random.default_rng(seed).standard_normal((m, n, n, n))
    before = values.copy()
    got = unpack(fft_grid(values, grid), grid)
    want = forward_passes(before) * half_tables(grid).keep_mask
    assert np.array_equal(got, want)
    full = scipy.fft.rfftn(before, axes=(-3, -2, -1), norm="forward")
    assert np.max(np.abs(got - full * half_tables(grid).keep_mask)) <= 1e-14 * np.max(np.abs(full))
    assert values.tobytes() == before.tobytes()


def ball_stack(seed: int, grid: GridSpec, m: int) -> np.ndarray:
    """Random complex (m, N, N, N/2+1) coefficients, zero outside the ball."""
    rng = np.random.default_rng(seed)
    shape = (m, grid.index.size)
    coeffs = np.zeros((m,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[..., half_tables(grid).keep_mask] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return coeffs


@DERANDOMIZED
@given(seed=seeds, n=sizes, radius=radii, m=stacks)
def test_pack_unpack_round_trip(seed, n, radius, m):
    # truncate_coeffs packs a half spectrum, or its compact columns
    grid = ball_grid(n, radius)
    coeffs = ball_stack(seed, grid, m)
    packed = truncate_coeffs(coeffs, grid)
    assert packed.shape == (m, grid.index.size)
    assert np.array_equal(packed, coeffs[..., half_tables(grid).keep_mask])
    assert unpack(packed, grid).tobytes() == coeffs.tobytes()
    columns = compact(coeffs, grid)
    assert columns.shape[-3:] == grid.column_shape
    assert truncate_coeffs(columns, grid).tobytes() == packed.tobytes()


@DERANDOMIZED
@given(n=sizes, radius=radii)
def test_packed_tables_are_the_grid_tables_on_the_ball(n, radius):
    grid = ball_grid(n, radius)
    half = half_tables(grid)
    keep = half.keep_mask
    assert np.array_equal(grid.index, np.flatnonzero(keep))
    assert np.array_equal(grid.column_index, np.flatnonzero(compact(keep, grid)))
    assert compact(keep, grid).sum() == keep.sum()  # the ball lies in the columns
    for name in ("kx", "ky", "kz", "k_sq", "parseval_weight"):
        assert getattr(grid, name).tobytes() == getattr(half, name)[keep].tobytes(), name
    with np.errstate(divide="ignore"):
        inv = np.where(half.k_sq > 0, 1.0 / half.k_sq, 0.0)
    assert grid.inv_k_sq.tobytes() == inv[keep].tobytes()


@DERANDOMIZED
@given(seed=seeds, n=sizes, radius=radii, m=stacks)
def test_packed_forward_equals_rfftn_on_the_ball(seed, n, radius, m):
    grid = ball_grid(n, radius)
    values = np.random.default_rng(seed).standard_normal((m, n, n, n))
    before = values.copy()
    assert_forward(fft_grid(values, grid), before, grid)
    assert values.tobytes() == before.tobytes()


@DERANDOMIZED
@given(seed=seeds, n=sizes, radius=radii, m=stacks, width=st.integers(1, 16),
       in_columns=st.booleans())
def test_packed_inverse_equals_irfftn_of_unpacked(seed, n, radius, m, width, in_columns):
    # in_columns: the x pass runs in compact columns of any content, and a
    # slab's planes there may be overwritten once its values are made, as
    # the forward pass does; staging then holds one slab, of any content
    # but zero at k3 > kc (NaN at k3 <= kc, so rows left unzeroed would
    # show).  Without columns the whole inverse runs in staging, of any
    # content.
    grid = ball_grid(n, radius)
    coeffs = ball_stack(seed, grid, m)
    packed = truncate_coeffs(coeffs, grid)
    before = packed.copy()
    work = SimpleNamespace(staging=np.zeros_like(coeffs), width=width, columns=None)
    if in_columns:
        work.columns = np.full((m + 1,) + grid.column_shape, np.nan + 1j, dtype=np.complex128)
        work.staging = np.zeros((m, width, n, n // 2 + 1), dtype=np.complex128)
    want = scipy.fft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
    for _ in range(2):  # the workspace is left ready for the next pass
        work.staging[..., : grid.kc + 1 if in_columns else None] = np.nan
        got = np.empty_like(want)

        def body(x0, values, out):
            assert values.shape[-3] == min(width, n - x0) and out is None
            got[..., x0 : x0 + values.shape[-3], :, :] = values
            if in_columns:
                work.columns[:, x0 : x0 + width] = np.nan
            return x0

        modes, partials = slab_pass(packed, grid, work, body)
        assert modes is None and partials == list(range(0, n, width))
        assert np.array_equal(got, want)
        assert not np.any(work.staging[..., grid.kc + 1 :])
    assert packed.tobytes() == before.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@DERANDOMIZED
@given(seed=seeds, n=sizes, radius=radii, m=stacks, width=st.integers(1, 16))
def test_passes_equal_scipy_fft_1d_calls(workers, seed, n, radius, m, width):
    # each pass, run inside fields.workers, is scipy.fft's public 1-D call
    # with as many workers on the same lines, bitwise: the y and z passes on
    # a slab of min(width, N) x-planes, the x passes on compact columns
    # (several slabs) or on a half spectrum (one slab)
    grid = ball_grid(n, radius)
    kc, c = grid.kc, min(width, n)
    rng = np.random.default_rng(seed)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    values = rng.standard_normal((m, c, n, n))
    slab = noise((m, c, n, n // 2 + 1))
    spectra = noise((m,) + (grid.column_shape if c < n else grid.spectral_shape))
    # the x lines that hold modes of the ball
    rows = (slice(0, kc + 1), slice(n - kc, n))
    lines = [(...,)] if c < n else [(..., r, slice(0, kc + 1)) for r in rows]
    opts = dict(norm="forward", workers=workers)
    with fields.workers(workers):
        want = scipy.fft.rfft(values, axis=-1, **opts)
        want[..., : kc + 1] = scipy.fft.fft(want[..., : kc + 1], axis=-2, **opts)
        assert rfft_zy(values, grid).tobytes() == want.tobytes()

        want = slab.copy()
        want[..., : kc + 1] = scipy.fft.ifft(slab[..., : kc + 1], axis=-2, **opts)
        got = slab.copy()
        ifft_y(got, grid)
        assert got.tobytes() == want.tobytes()

        want = scipy.fft.irfft(slab, n=n, axis=-1, **opts)
        assert irfft_z(slab, n).tobytes() == want.tobytes()

        for run, scipy_pass in ((ifft_x, scipy.fft.ifft), (fft_x, scipy.fft.fft)):
            want = spectra.copy()
            for at in lines:
                want[at] = scipy_pass(spectra[at], axis=-3, **opts)
            got = spectra.copy()
            packed = run(got, grid)
            if run is fft_x:
                got, want = packed, truncate_coeffs(want, grid)
            assert got.tobytes() == want.tobytes()
    assert fields._FFT_WORKERS == 1


@DERANDOMIZED
@given(seed=seeds, n=sizes, radius=radii, m=stacks, width=st.integers(1, 16))
def test_slab_forward_columns_equal_rfftn_on_the_ball(seed, n, radius, m, width):
    # every position of the compact columns is written: each slab's body
    # NaN-fills its planes there once its values are made, and the forward
    # pass must overwrite them all; the body writes its grids into the
    # (m, c, N, N) slab the pass lends it from a NaN-filled products array
    grid = ball_grid(n, radius)
    values = np.random.default_rng(seed).standard_normal((m, n, n, n))
    before = values.copy()
    work = SimpleNamespace(
        staging=np.zeros((m, width, n, n // 2 + 1), dtype=np.complex128), width=width,
        columns=np.full((m,) + grid.column_shape, np.nan, dtype=np.complex128),
        products=np.full((m + 1, width, n, n), np.nan),
    )

    def body(x0, phys, out):
        assert out.shape == (m, min(width, n - x0), n, n)
        work.columns[:, x0 : x0 + width] = np.nan
        out[...] = values[..., x0 : x0 + width, :, :]
        return x0

    modes, partials = slab_pass(np.zeros((m, grid.index.size), np.complex128), grid, work,
                                body, m)
    assert partials == list(range(0, n, width))
    assert not np.any(np.isnan(work.columns))
    assert_forward(modes, before, grid)
    assert values.tobytes() == before.tobytes()


DAMPINGS = [
    DampingSpec(),
    DampingSpec(kind="power", alpha=1.0, beta=3.0),
    DampingSpec(kind="power", alpha=1.0, beta=5.0),
    DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
    DampingSpec(kind="generalized", alpha=1.0, f_id="log2"),
]


@DERANDOMIZED
@given(seed=seeds, n=sizes, damping=st.sampled_from(DAMPINGS), planes=st.integers(1, 16),
       h1=st.floats(1e-3, 30.0))
def test_ledger_row_matches_full_batch_oracle(seed, n, damping, planes, h1):
    grid = GRIDS[n]
    u = random_divfree(grid, seed, h1_norm=h1)
    b = random_divfree(grid, seed + 1, h1_norm=h1)
    state = pair_state(grid, u, b)
    want = ledger_row_oracle(state, damping)
    with slab_planes(n, planes):
        row = ledger_row(state, damping)
    for name, value in want.items():
        assert abs(row[name] - value) <= 1e-13 * abs(value), name


@PROPERTY
@given(seed_a=seeds, seed_b=seeds, n=sizes)
def test_leray_idempotent_and_self_adjoint(seed_a, seed_b, n):
    grid = GRIDS[n]
    a = random_coeffs(seed_a, grid)
    b = random_coeffs(seed_b, grid)
    pa = leray(a, grid)
    assert np.max(np.abs(leray(pa, grid) - pa)) <= 1e-12 * np.max(np.abs(pa))
    lhs = inner_l2(pa, b, grid)
    rhs = inner_l2(a, leray(b, grid), grid)
    scale = np.sqrt(inner_l2(a, a, grid) * inner_l2(b, b, grid))
    assert abs(lhs - rhs) <= 1e-12 * scale


def checkpoint_bytes(data):
    """Random bytes, or a well-formed header followed by random bytes, whose
    payload may have exactly the size the header announces: random bytes
    and a random CRC, or the random coefficients of no real field and the
    CRC that makes the file intact."""
    kind = data.draw(st.sampled_from(["raw", "header", "sized", "intact"]))
    if kind == "raw":
        return data.draw(st.binary(max_size=200))
    sized = kind in ("sized", "intact")
    version = 3 if sized else data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.sampled_from([8, 10]) if sized else st.integers(-(2**63), 2**63 - 1))
    radius = data.draw(st.floats(0.5, n / 2) if sized
                       else st.floats(allow_nan=True, allow_infinity=True))
    t = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    header = struct.pack("<4sIqdd", b"MHDF", version, n, radius, t)
    if kind == "header":
        return header + data.draw(st.binary(max_size=200))
    rng = np.random.default_rng(data.draw(seeds))
    m = ball_size(radius)
    if kind == "sized":
        return header + rng.bytes(96 * m + 4)
    body = header + (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m))).tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


@PROPERTY
@given(data=st.data())
def test_random_checkpoint_bytes_rejected(data):
    blob = checkpoint_bytes(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.mhdf"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except ValueError:
            pass
        else:
            raise AssertionError("random bytes loaded as a checkpoint")

        cfg = ExperimentConfig(
            name="restart",
            solver=SolverConfig(
                grid=GRIDS[8], dt=1e-2, t_end=0.02,
                initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)),
            ),
        )
        save_config(cfg, Path(tmp) / "cfg.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(Path(tmp) / "cfg.json"), "--out", str(Path(tmp) / "out")])
        assert rc == 1
        message = err.getvalue().strip()
        assert message.startswith("error: ") and "\n" not in message
