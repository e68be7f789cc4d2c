"""
Time advancement of the truncated Galerkin system.

The viscous part is integrated exactly through a spectral integrating factor;
the nonlinear, coupling and damping terms are advanced explicitly with
classical RK4 stage weights.  Writing E = exp(-nu(k) dt/2) and N(.) for the
non-viscous tendency, one step is

    N1 = N(w)
    N2 = N(E (w + dt/2 N1))
    N3 = N(E w + dt/2 N2)
    N4 = N(E^2 w + dt E N3)
    w_next = E^2 w + dt/6 (E^2 N1 + 2 E (N2 + N3) + N4)

which reduces to exact heat decay when N vanishes.  The running dissipation
integrals entering the L2 energy balance (int ||grad w||^2, int ||Lap w||^2
and the damping dissipation) are accumulated with the same stage weights, so
the discrete energy residual converges at the order of the scheme instead of
being limited by row-level quadrature.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .damping import DampingSpec
from .energy import L2_DAMPING_COLUMN, EnergyLedger, ledger_row, spectral_sums
from .fields import HERMITIAN_TOL, SpectralVectorField, fft_grid, hermitian_defect, ifft_grid
from .grid import GridSpec, _is_int, _is_number
from .nonlinear import _rhs_core
from .operators import (
    h1_norm_pair,
    leray_project_coeffs,
    truncate_coeffs,
    viscous_symbol,
)
from .state import MhdState

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MHDF"
CHECKPOINT_VERSION = 2  # 1: full (N, N, N) spectra, still read; 2: half spectra
CHECKPOINT_HEADER = "<4sIqdd"
# A loaded state must be divergence-free to this fraction of its H1 norm.
DIV_FREE_RTOL = 1e-10

INITIAL_KINDS = ("taylor_green_like", "random_divfree", "single_mode", "from_checkpoint")


class BlowUpError(RuntimeError):
    """Non-finite coefficients appeared during time stepping."""

    def __init__(self, time: float, ledger=None):
        super().__init__(f"solution blew up at t = {time:.6g}")
        self.time = time
        self.ledger = ledger


@dataclass(frozen=True)
class InitialCondition:
    kind: str = "random_divfree"
    target_h1: float | None = None
    amplitude: float = 1.0
    b_amplitude: float = 0.5
    mode: tuple[int, int, int] = (0, 0, 1)
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        for name in ("target_h1", "amplitude", "b_amplitude"):
            value = getattr(self, name)
            if not (_is_number(value) or (name == "target_h1" and value is None)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.kind == "random_divfree" and self.target_h1 is None:
            raise ValueError("random_divfree requires target_h1")
        if self.kind == "random_divfree" and self.target_h1 < 0:
            raise ValueError("target_h1 must be >= 0")
        if self.kind == "from_checkpoint" and not self.path:
            raise ValueError("from_checkpoint requires a path")
        if len(self.mode) != 3 or not all(_is_int(m) for m in self.mode):
            raise ValueError(f"mode must be three integers, got {self.mode!r}")
        object.__setattr__(self, "mode", tuple(int(m) for m in self.mode))


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    dt: float
    t_end: float
    initial_condition: InitialCondition
    nu_h: float = 1.0
    nu_v: float = 1.0
    damping: DampingSpec = DampingSpec()
    ledger_stride: int = 10
    seed: int = 0
    cfl_target: float = 0.5

    def __post_init__(self) -> None:
        for name in ("dt", "t_end", "nu_h", "nu_v", "cfl_target"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not _is_int(self.ledger_stride):
            raise ValueError(f"ledger_stride must be an integer, got {self.ledger_stride!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if self.nu_h <= 0 or self.nu_v <= 0:
            raise ValueError("viscosities must be positive")
        if self.ledger_stride < 1:
            raise ValueError("ledger_stride must be >= 1")
        n = round(self.t_end / self.dt) if self.t_end > 0 else 0
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")


def config_hash(config: SolverConfig) -> str:
    """Stable hash of the full configuration.

    A from_checkpoint start is hashed by the checkpoint's content, not its
    path, so two restarts from different states never share a hash.
    """
    data = asdict(config)
    ic = config.initial_condition
    if ic.kind == "from_checkpoint":
        with open(ic.path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        data["initial_condition"]["path"] = "sha256:" + digest
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# Initial conditions -------------------------------------------------------


def _random_divfree_state(grid: GridSpec, seed: int) -> MhdState:
    """Divergence-free random pair (u, b) with ~|k|^-4 spectral decay.

    Full (3, N, N, N) normals are drawn and made Hermitian, c(k) =
    (raw(k) + conj(raw(-k))) / 2, on the half spectrum, so a seed gives the
    same state in every storage layout.  ValueError when the ball |k| < R
    holds no nonzero wavenumber (R <= 1).
    """
    if grid.truncation_radius <= 1.0:
        raise ValueError(
            f"random_divfree needs truncation_radius > 1, got {grid.truncation_radius:g}: "
            "the ball |k| < R holds no nonzero wavenumber"
        )
    rng = np.random.default_rng(seed)
    n = grid.n_modes
    shape = (3,) + grid.shape
    rev = (-np.arange(n)) % n
    half = n // 2 + 1
    decay = (1.0 + grid.k_sq) ** -2.0
    state = MhdState.zeros(grid)
    for field in (state.u, state.b):
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flipped = raw[..., rev[:half]][:, rev][:, :, rev]
        np.multiply(0.5 * (raw[..., :half] + np.conj(flipped)), decay, out=field.coeffs)
        field.coeffs[:, 0, 0, 0] = 0.0
    return _projected(state)


def _projected(state: MhdState) -> MhdState:
    """``state`` with both fields truncated to the ball and Leray-projected."""
    state.coeffs = leray_project_coeffs(truncate_coeffs(state.coeffs, state.grid), state.grid)
    return state


def make_initial(
    kind: str,
    grid: GridSpec,
    seed: int = 0,
    *,
    target_h1: float | None = None,
    amplitude: float = 1.0,
    b_amplitude: float = 0.5,
    mode: tuple[int, int, int] = (0, 0, 1),
    path: str | None = None,
) -> MhdState:
    """Construct a divergence-free initial state.

    random_divfree rescales the pair so ||(u0, b0)||_H1 equals target_h1
    exactly; single_mode produces amplitude * sin(k.x) along a direction
    perpendicular to k (b = 0); taylor_green_like is the classical vortex
    with a perpendicular divergence-free magnetic companion.  The arguments
    are checked as an :class:`InitialCondition`; ValueError if they do not
    make one.
    """
    ic = InitialCondition(kind, target_h1, amplitude, b_amplitude, mode, path)
    if kind == "from_checkpoint":
        state = load_checkpoint(path)
        if (
            state.grid.n_modes != grid.n_modes
            or state.grid.truncation_radius != grid.truncation_radius
        ):
            raise ValueError(
                "checkpoint grid (N=%d, R=%g) does not match configured grid (N=%d, R=%g)"
                % (
                    state.grid.n_modes,
                    state.grid.truncation_radius,
                    grid.n_modes,
                    grid.truncation_radius,
                )
            )
        return state

    if kind == "random_divfree":
        if target_h1 == 0.0:
            return MhdState.zeros(grid)
        state = _random_divfree_state(grid, seed)
        state.coeffs *= target_h1 / h1_norm_pair(state.coeffs, grid)
        return state

    if kind == "single_mode":
        k = np.array(ic.mode, dtype=np.float64)
        if not np.any(k):
            raise ValueError("single_mode wavenumber must be nonzero")
        k_hat = k / np.linalg.norm(k)
        e = np.array([1.0, 0.0, 0.0])
        if abs(k_hat[0]) > 0.999:
            e = np.array([0.0, 1.0, 0.0])
        e = e - np.dot(e, k_hat) * k_hat
        e /= np.linalg.norm(e)
        x1, x2, x3 = grid.mesh()
        phase = k[0] * x1 + k[1] * x2 + k[2] * x3
        values = amplitude * np.sin(phase)[None, :, :, :] * e[:, None, None, None]
        u = SpectralVectorField(truncate_coeffs(fft_grid(values), grid), grid)
        return MhdState.from_fields(u, SpectralVectorField.zeros(grid))

    # taylor_green_like
    x1, x2, x3 = grid.mesh()
    u = np.empty((3,) + grid.shape)
    u[0] = np.sin(x1) * np.cos(x2) * np.cos(x3)
    u[1] = -np.cos(x1) * np.sin(x2) * np.cos(x3)
    u[2] = 0.0
    b = np.empty((3,) + grid.shape)
    b[0] = np.cos(x1) * np.sin(x2) * np.sin(x3)
    b[1] = np.sin(x1) * np.cos(x2) * np.sin(x3)
    b[2] = -2.0 * np.sin(x1) * np.sin(x2) * np.cos(x3)
    return _projected(
        MhdState.from_fields(
            SpectralVectorField(fft_grid(amplitude * u), grid),
            SpectralVectorField(fft_grid(amplitude * b_amplitude * b), grid),
        )
    )


def make_initial_from_config(config: SolverConfig) -> MhdState:
    ic = asdict(config.initial_condition)
    return make_initial(ic.pop("kind"), config.grid, config.seed, **ic)


# Stepping ------------------------------------------------------------------


class _StepWork:
    """Precomputed multipliers and parameters for one (grid, dt) pair."""

    def __init__(self, config: SolverConfig):
        self.grid = config.grid
        self.dt = config.dt
        self.damping = config.damping
        sym = viscous_symbol(self.grid, config.nu_h, config.nu_v)
        self.half_factor = np.exp(-sym * (self.dt / 2.0))
        self.full_factor = self.half_factor * self.half_factor

    def _stage(self, w, want_diag):
        """Tendency at one RK4 stage and, with ``want_diag``, the stage's
        (||grad w||^2, ||Lap w||^2, damping dissipation)."""
        dw, diss = _rhs_core(w, self.grid, self.damping, want_diag)
        if not want_diag:
            return dw, (0.0, 0.0, 0.0)
        _, grad, lap = spectral_sums(w, self.grid)
        return dw, (grad, lap, diss)

    @np.errstate(over="ignore", invalid="ignore")
    def advance(self, w, want_diag=True):
        """One integrating-factor RK4 step on the stacked coefficients
        w = (u, b) of an :class:`MhdState`.

        Returns (w_new, increments) where increments holds the
        stage-weighted contributions to (int ||grad w||^2, int ||Lap w||^2,
        int damping dissipation) over this step.  Overflow is not trapped
        here: non-finite values are the blow-up signal, detected by the
        caller after the step.
        """
        dt, E, E2 = self.dt, self.half_factor, self.full_factor
        h = 0.5 * dt
        n1, s1 = self._stage(w, want_diag)
        n2, s2 = self._stage(E * (w + h * n1), want_diag)
        n3, s3 = self._stage(E * w + h * n2, want_diag)
        n4, s4 = self._stage(E2 * w + dt * (E * n3), want_diag)

        # w_new = E2 w + dt/6 (E2 n1 + 2 E (n2 + n3) + n4), in place in the spent tendencies
        c = dt / 6.0
        n2 += n3
        n2 *= 2.0 * E
        n2 += np.multiply(E2, n1, out=n1)
        n2 += n4
        n2 *= c
        n2 += np.multiply(E2, w, out=n1)
        w_new = leray_project_coeffs(truncate_coeffs(n2, self.grid), self.grid)

        increments = tuple(c * (a + 2.0 * (b + d) + e) for a, b, d, e in zip(s1, s2, s3, s4))
        return w_new, increments


def cfl_bound(state: MhdState, config: SolverConfig) -> float:
    """Advective time-step bound cfl_target / (k_max (||u||_inf + ||b||_inf))."""
    n = config.grid.n_modes
    speed = sum(float(np.max(np.abs(ifft_grid(f, n)))) for f in np.split(state.coeffs, 2))
    if speed == 0.0:
        return np.inf
    return config.cfl_target / (config.grid.truncation_radius * speed)


def trajectory(state: MhdState, config: SolverConfig, want_diag: bool = True):
    """Step ``state`` to config.t_end, yielding the sampled states.

    Yields (t, w, integrals) at the state time, every ledger_stride
    steps and at t_end.  ``integrals`` holds the running stage-weighted
    (int ||grad w||^2, int ||Lap w||^2, int damping dissipation) since the
    state time; it stays zero without ``want_diag``.  ``w`` is the stacked
    coefficient array of an :class:`MhdState`; every step makes a new one,
    so yielded arrays are never modified later.  Raises
    BlowUpError at the first step that leaves the finite fields.
    """
    t0 = state.t
    span = config.t_end - t0
    if span < -1e-12:
        raise ValueError(f"t_end = {config.t_end} precedes the state time {t0}")
    n_steps = max(round(span / config.dt), 0)
    if abs(n_steps * config.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("t_end - t0 must be an integer multiple of dt")

    work = _StepWork(config)
    w = state.coeffs
    acc = [0.0, 0.0, 0.0]
    yield t0, w, (0.0, 0.0, 0.0)
    for i in range(1, n_steps + 1):
        w, inc = work.advance(w, want_diag)
        acc = [a + x for a, x in zip(acc, inc)]
        t = t0 + i * config.dt
        if not np.all(np.isfinite(w)):
            raise BlowUpError(t)
        if i % config.ledger_stride == 0 or i == n_steps:
            yield t, w, tuple(acc)


def run(config: SolverConfig):
    """Integrate from the configured initial state to t_end.

    Returns (final MhdState, EnergyLedger).  A ledger row is appended at
    t = 0, every ledger_stride steps, and at t_end.  Identical configs
    produce bit-identical ledgers.  Raises BlowUpError (carrying the partial
    ledger) if the solution leaves the space of finite fields.
    """
    state = make_initial_from_config(config)
    steps = trajectory(state, config)
    first = next(steps)  # checks the span before any other work
    bound = cfl_bound(state, config)
    if config.dt > bound:
        log.warning(
            "dt = %g exceeds the advective stability bound %g; expect blow-up",
            config.dt,
            bound,
        )

    damping = config.damping
    damp_col = L2_DAMPING_COLUMN.get(damping.kind)
    ledger = EnergyLedger(
        damping,
        config.dt,
        round((config.t_end - state.t) / config.dt),
        meta={
            "n_modes": config.grid.n_modes,
            "truncation_radius": config.grid.truncation_radius,
            "nu_h": config.nu_h,
            "nu_v": config.nu_v,
            "seed": config.seed,
            "ledger_stride": config.ledger_stride,
            "cfl_bound": bound,
            "config_hash": config_hash(config),
        },
    )

    def exact_integrals(acc):
        out = {"int_h1dot_sq": acc[0], "int_h2dot_sq": acc[1]}
        if damp_col:
            out["int_" + damp_col] = acc[2]
        return out

    try:
        for t, w, acc in itertools.chain([first], steps):
            snapshot = MhdState(w, config.grid, t)
            ledger.append(t, ledger_row(snapshot, damping), exact_integrals(acc))
    except BlowUpError as exc:
        exc.ledger = ledger
        raise
    return snapshot, ledger


# Checkpoints ---------------------------------------------------------------


def save_checkpoint(path, state: MhdState) -> None:
    """Fixed-layout little-endian binary snapshot; bit-exact round trip.

    Layout (version 2): magic "MHDF", format version (u32), N (i64),
    truncation radius (f64), time (f64), then ``state.coeffs``: the six
    half-spectrum coefficient arrays u1 u2 u3 b1 b2 b3, each (N, N, N/2+1)
    complex128 in C order.  Version 1 stored full (N, N, N) arrays in the
    same order.
    """
    header = struct.pack(
        CHECKPOINT_HEADER,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        state.grid.n_modes,
        state.grid.truncation_radius,
        state.t,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.coeffs, dtype="<c16").tobytes())


def load_checkpoint(path) -> MhdState:
    """Read a version 2 or version 1 checkpoint and check the state it holds.

    Malformed files raise ValueError before any allocation sized by the
    header.  The state must then have a finite time and finite coefficients,
    no mode outside the truncation ball, self-conjugate planes within
    HERMITIAN_TOL of Hermitian symmetry and a divergence within
    DIV_FREE_RTOL of its H1 norm; otherwise ValueError.
    """
    header_size = struct.calcsize(CHECKPOINT_HEADER)
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ValueError(f"{path}: not a checkpoint file ({len(header)}-byte header)")
        magic, version, n, radius, t = struct.unpack(CHECKPOINT_HEADER, header)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        if version not in (1, 2):
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        stored = n if version == 1 else n // 2 + 1  # k3 slots per array
        payload = os.fstat(fh.fileno()).st_size - header_size
        if n < 1 or payload != 6 * n * n * stored * 16:
            raise ValueError(
                f"{path}: payload of {payload} bytes does not hold six N = {n} "
                f"version {version} coefficient arrays"
            )
        if not _is_number(t):
            raise ValueError(f"{path}: checkpoint time {t} is not finite")
        grid = GridSpec(n_modes=int(n), truncation_radius=float(radius))
        data = np.frombuffer(fh.read(payload), dtype="<c16").reshape(6, n, n, stored)
    coeffs = np.ascontiguousarray(data[..., : n // 2 + 1], dtype=np.complex128)
    state = MhdState(coeffs, grid, float(t))
    _check_loaded_state(path, state)
    return state


def _check_loaded_state(path, state: MhdState) -> None:
    grid = state.grid
    if not state.is_finite():
        raise ValueError(f"{path}: state has non-finite coefficients")
    if np.any(state.coeffs[:, ~grid.keep_mask]):
        raise ValueError(f"{path}: state is nonzero outside |k| < {grid.truncation_radius:g}")
    defect = hermitian_defect(state)
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"{path}: state is not a real field (Hermitian defect {defect:.3e} "
            f"> {HERMITIAN_TOL:.0e})"
        )
    divergence = state.max_divergence()
    h1 = h1_norm_pair(state.coeffs, grid)
    if divergence > DIV_FREE_RTOL * h1:
        raise ValueError(
            f"{path}: divergence {divergence:.3e} exceeds {DIV_FREE_RTOL:.0e} x H1 norm {h1:.3e}"
        )
