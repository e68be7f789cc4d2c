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
import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np
import numpy.random  # noqa: F401 -- imported here, so set-up's first draw imports nothing

from .damping import DampingSpec
from .energy import EnergyLedger, ledger_row, spectral_sums
from .fields import HERMITIAN_TOL, hermitian_defect, slab_pass
from .grid import GridSpec, check_fields, check_memory, leaf
from .nonlinear import Workspace, _rhs_core
from .operators import h1_norm_pair, leray_project_coeffs, truncate_coeffs, viscous_symbol
from .state import MhdState

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MHDF"
CHECKPOINT_VERSION = 2  # half spectra; no other version is read
CHECKPOINT_HEADER = "<4sIqdd"
HASH_CHUNK = 2**18  # bytes of a checkpoint hashed at a time
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
    kind: str = leaf("name", choices=INITIAL_KINDS, default="random_divfree")
    target_h1: float | None = leaf("real", default=None)
    amplitude: float = leaf("real", default=1.0)
    b_amplitude: float = leaf("real", default=0.5)
    mode: tuple[int, int, int] = leaf("ints", default=(0, 0, 1))
    path: str | None = leaf("str", default=None)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "random_divfree" and (self.target_h1 is None or self.target_h1 < 0):
            raise ValueError(f"random_divfree requires target_h1 >= 0, got {self.target_h1!r}")
        if self.kind == "from_checkpoint" and not self.path:
            raise ValueError("from_checkpoint requires a path")
        if len(self.mode) != 3:
            raise ValueError(f"mode must be three integers, got {self.mode!r}")
        object.__setattr__(self, "mode", tuple(int(m) for m in self.mode))


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    dt: float = leaf("real", gt=0)
    t_end: float = leaf("real", ge=0)
    initial_condition: InitialCondition
    nu_h: float = leaf("real", gt=0, default=1.0)
    nu_v: float = leaf("real", gt=0, default=1.0)
    damping: DampingSpec = DampingSpec()
    ledger_stride: int = leaf("int", ge=1, default=10)
    seed: int = leaf("int", ge=0, default=0)
    cfl_target: float = leaf("real", gt=0, default=0.5)

    def __post_init__(self) -> None:
        check_fields(self)
        _whole_steps(self.t_end, self.dt, "t_end")


def _whole_steps(span: float, dt: float, what: str) -> int:
    """Number of steps of ``dt`` in ``span``, named ``what`` in errors;
    ValueError unless the span is a whole, finite number of steps."""
    steps = span / dt
    if not math.isfinite(steps):
        raise ValueError(f"{what} = {span:g} is not a finite number of steps of dt = {dt:g}")
    n_steps = max(round(steps), 0)
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"{what} must be an integer multiple of dt")
    return n_steps


def config_hash(config: SolverConfig) -> str:
    """Stable hash of the full configuration.

    A from_checkpoint start is hashed by the checkpoint's content, not its
    path, so two restarts from different states never share a hash.
    """
    data = asdict(config)
    ic = config.initial_condition
    if ic.kind == "from_checkpoint":
        digest = hashlib.sha256()
        chunk = bytearray(HASH_CHUNK)
        with open(ic.path, "rb") as fh:
            while size := fh.readinto(chunk):
                digest.update(memoryview(chunk)[:size])
        data["initial_condition"]["path"] = "sha256:" + digest.hexdigest()
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# Initial conditions -------------------------------------------------------


def _random_divfree_state(grid: GridSpec, seed: int) -> MhdState:
    """Divergence-free random pair (u, b) with ~|k|^-4 spectral decay.

    Full (3, N, N, N) normals are drawn and made Hermitian, c(k) =
    (raw(k) + conj(raw(-k))) / 2, on the ball, so a seed gives the same
    state in every storage layout.  Of each draw only the values at the
    ball's modes k and their mirrors -k are kept.  ValueError when the ball
    |k| < R holds no nonzero wavenumber (R <= 1), or when one draw exceeds
    the physical memory.
    """
    if grid.truncation_radius <= 1.0:
        raise ValueError(
            f"random_divfree needs truncation_radius > 1, got {grid.truncation_radius:g}: "
            "the ball |k| < R holds no nonzero wavenumber"
        )
    n = grid.n_modes
    shape = (3,) + grid.shape
    check_memory(24 * n**3, f"a random_divfree draw at n_modes = {n}")
    rng = np.random.default_rng(seed)
    k = np.array([grid.kx, grid.ky, grid.kz], dtype=np.int64)
    # (2, M) flat positions in an (N, N, N) grid of the ball's modes k and -k
    modes = np.ravel_multi_index(np.stack([k, -k], axis=1) % n, grid.shape)
    del k

    def draw():
        return rng.standard_normal(shape).reshape(3, -1)[:, modes]

    decay = (1.0 + grid.k_sq) ** -2.0
    state = MhdState.zeros(grid)
    for field in (state.u, state.b):
        raw = draw() + 1j * draw()
        np.multiply(0.5 * (raw[:, 0] + np.conj(raw[:, 1])), decay, out=field)
        del raw  # before the next field's draws
        field[:, 0] = 0.0  # the k = 0 mode
    leray_project_coeffs(state.coeffs, grid)
    return state


def _place_waves(grid: GridSpec, field: np.ndarray, waves, coeffs) -> None:
    """Write into the packed (3, M) ``field`` the modes of the real field
    sum_j c_j exp(i k_j.x) + c.c., k_j the rows of (w, 3) ``waves`` with
    components in (-N/2, N/2] and c_j those of ``coeffs``: of each k and -k
    those with k3 >= 0, when in the ball."""
    n = grid.n_modes
    k = np.concatenate([waves, np.negative(waves)])
    c = np.concatenate([coeffs, np.conj(coeffs)])[k[:, 2] >= 0]
    k = k[k[:, 2] >= 0] % n
    flat = (k[:, 0] * n + k[:, 1]) * (n // 2 + 1) + k[:, 2]
    pos = np.minimum(np.searchsorted(grid.index, flat), grid.index.size - 1)
    found = grid.index[pos] == flat
    field[:, pos[found]] = c[found].T


def make_initial(kind: str, grid: GridSpec, seed: int = 0, **fields) -> MhdState:
    """Construct a divergence-free initial state.

    ``fields`` are the other keywords of :class:`InitialCondition`, with
    its defaults; ValueError if they do not make one.  random_divfree
    rescales the pair so ||(u0, b0)||_H1 equals target_h1 exactly;
    single_mode produces amplitude * sin(k.x) along a direction
    perpendicular to k (b = 0), k with components in (-N/2, N/2];
    taylor_green_like is the classical vortex with a perpendicular
    divergence-free magnetic companion.  These two are written as their
    exact modes in the ball (ValueError if not finite), then projected.
    """
    ic = InitialCondition(kind, **fields)
    if kind == "from_checkpoint":
        state = load_checkpoint(ic.path)
        got = state.grid
        if (got.n_modes, got.truncation_radius) != (grid.n_modes, grid.truncation_radius):
            raise ValueError(
                f"checkpoint grid (N={got.n_modes}, R={got.truncation_radius:g}) does not "
                f"match configured grid (N={grid.n_modes}, R={grid.truncation_radius:g})"
            )
        return MhdState(state.coeffs, grid, state.t)  # the reader's grid tables are dropped

    if kind == "random_divfree":
        if ic.target_h1 == 0.0:
            return MhdState.zeros(grid)
        state = _random_divfree_state(grid, seed)
        state.coeffs *= ic.target_h1 / h1_norm_pair(state.coeffs, grid)
        return state

    state = MhdState.zeros(grid)
    if kind == "single_mode":
        n, k = grid.n_modes, ic.mode
        if not any(k):
            raise ValueError("single_mode wavenumber must be nonzero")
        if not all(-n // 2 < j <= n // 2 for j in k):
            raise ValueError(
                f"single_mode wavenumber {k} has a component outside (-N/2, N/2] = "
                f"({-n // 2}, {n // 2}], where it aliases"
            )
        k_hat = np.array(k, dtype=np.float64) / np.linalg.norm(k)
        e = np.array([0.0, 1.0, 0.0] if abs(k_hat[0]) > 0.999 else [1.0, 0.0, 0.0])
        e -= np.dot(e, k_hat) * k_hat
        e /= np.linalg.norm(e)
        _place_waves(grid, state.u, [k], [-0.5j * ic.amplitude * e])
    else:  # taylor_green_like: 1/2 per cosine and s/(2i) per sine of s x
        s1, s2 = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
        waves = np.stack([s1, s2, np.ones_like(s1)], axis=1)
        u = np.stack([-1j * s1, 1j * s2, 0 * s1], axis=1)
        b = np.stack([-s2, -s1, 2 * s1 * s2], axis=1)
        _place_waves(grid, state.u, waves, ic.amplitude / 8 * u)
        _place_waves(grid, state.b, waves, ic.amplitude * ic.b_amplitude / 8 * b)
    if not np.all(np.isfinite(state.coeffs)):
        raise ValueError(
            f"{kind} initial state is not finite (amplitude {ic.amplitude:g}, "
            f"b_amplitude {ic.b_amplitude:g})"
        )
    leray_project_coeffs(state.coeffs, grid)
    return state


def make_initial_from_config(config: SolverConfig) -> MhdState:
    ic = asdict(config.initial_condition)
    return make_initial(ic.pop("kind"), config.grid, config.seed, **ic)


# Stepping ------------------------------------------------------------------


class _StepWork:
    """Integrating factors for one (grid, dt) pair and a :class:`Workspace`,
    which trajectories stepped in turn may share: nothing outlives a step."""

    def __init__(self, config: SolverConfig):
        self.grid = config.grid
        self.dt = config.dt
        self.damping = config.damping
        self.work = Workspace(self.grid)
        # A symbol beyond double range damps its mode to exactly zero.
        with np.errstate(over="ignore", invalid="ignore"):
            sym = viscous_symbol(self.grid, config.nu_h, config.nu_v)
            self.half_factor = np.exp(-sym * (self.dt / 2.0))
            self.full_factor = self.half_factor * self.half_factor

    def _stage(self, want_diag):
        """Tendency at the stage state held in work.stage and, with
        ``want_diag``, the stage's (||grad w||^2, ||Lap w||^2, damping
        dissipation)."""
        sums = spectral_sums(self.work.stage, self.grid)[1:] if want_diag else (0.0, 0.0)
        dw, diss = _rhs_core(self.work.stage, self.grid, self.damping, want_diag, self.work)
        return dw, sums + (diss,)

    @np.errstate(over="ignore", invalid="ignore")
    def advance(self, w, want_diag=True):
        """One integrating-factor RK4 step on the stacked coefficients
        w = (u, b) of an :class:`MhdState`, packed to the ball: (6, M).  The
        modes outside the ball are zero in every stage and stay zero, so
        they are not stored.

        Returns (w_new, increments) where w_new is a new packed array and
        increments holds the stage-weighted contributions to
        (int ||grad w||^2, int ||Lap w||^2, int damping dissipation) over
        this step.  Overflow is not trapped here: non-finite values are the
        blow-up signal, detected by the caller after the step.
        """
        dt, E, E2 = self.dt, self.half_factor, self.full_factor
        h = 0.5 * dt
        stage = self.work.stage
        # The new state's array first holds the running RK4 sum, which runs
        # through E n1 / 2 + n2 + n3 to E2 n1 + 2 E (n2 + n3) + n4.  Each
        # tendency is spent on that sum and on the next stage state, built
        # in place in work.stage, then dropped before the next stage
        # allocates its own.
        acc = np.empty_like(w)
        np.copyto(stage, w)
        n, s1 = self._stage(want_diag)
        np.multiply(E, n, out=acc)
        acc *= 0.5
        n *= h
        np.add(w, n, out=stage)
        stage *= E                                  # E (w + h n1)
        del n
        n, s2 = self._stage(want_diag)
        acc += n
        n *= h
        np.multiply(E, w, out=stage)
        stage += n                                  # E w + h n2
        del n
        n, s3 = self._stage(want_diag)
        acc += n
        n *= E
        n *= dt
        np.multiply(E2, w, out=stage)
        stage += n                                  # E2 w + dt E n3
        del n
        n, s4 = self._stage(want_diag)
        acc *= E
        acc *= 2.0
        acc += n
        del n

        # w_new = E2 w + dt/6 acc
        c = dt / 6.0
        acc *= c
        acc += np.multiply(E2, w, out=stage)
        w_new = leray_project_coeffs(acc, self.grid)

        increments = tuple(c * (a + 2.0 * (b + d) + e) for a, b, d, e in zip(s1, s2, s3, s4))
        return w_new, increments


def cfl_bound(state: MhdState, config: SolverConfig, work: Workspace | None = None) -> float:
    """Advective time-step bound cfl_target / (k_max (||u||_inf + ||b||_inf)),
    the maxima taken one slab of point values at a time in ``work``, a
    :class:`Workspace` of the grid that is idle (a new one when None)."""
    grid = config.grid
    work = work or Workspace(grid)

    def peaks(x0, phys, out):
        np.abs(phys, out=phys)
        return np.max(phys[0:3]), np.max(phys[3:6])

    u_max, b_max = np.max(slab_pass(state.coeffs, grid, work, peaks)[1], axis=0)
    speed = float(u_max) + float(b_max)
    if speed == 0.0:
        return np.inf
    return config.cfl_target / (grid.truncation_radius * speed)


def _step_count(t0: float, config: SolverConfig) -> int:
    """Number of steps from t0 to config.t_end; ValueError unless that span
    is a whole number of steps."""
    span = config.t_end - t0
    if span < -1e-12:
        raise ValueError(f"t_end = {config.t_end} precedes the state time {t0}")
    return _whole_steps(span, config.dt, "t_end - t0")


def trajectory(state: MhdState, config: SolverConfig, want_diag: bool = True, work=None):
    """Step ``state`` to config.t_end, yielding the sampled states.

    Yields (t, w, integrals) at the state time, every ledger_stride
    steps and at t_end.  ``integrals`` holds the running stage-weighted
    (int ||grad w||^2, int ||Lap w||^2, int damping dissipation) since the
    state time; it stays zero without ``want_diag``.  ``w`` is the stacked
    (6, M) coefficient array of an :class:`MhdState`: ``state.coeffs``
    itself at the state time, then the stepper's new state, a new array
    each step, so yielded arrays are never modified later.  Raises
    BlowUpError at the first step that leaves the finite fields.
    ``work`` is the :class:`_StepWork` to step on, a new one when None;
    its workspace is idle while a yield waits, so it may be lent or shared.
    """
    t0 = state.t
    n_steps = _step_count(t0, config)
    if work is None:
        work = _StepWork(config)
    w = state.coeffs
    acc = [0.0, 0.0, 0.0]
    yield t0, w, (0.0, 0.0, 0.0)
    del state  # the caller alone keeps the initial state alive, if it wants to
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
    the state time, every ledger_stride steps, and at t_end.  Identical configs
    produce bit-identical ledgers.  Raises BlowUpError (carrying the partial
    ledger) if the solution leaves the space of finite fields.
    """
    state = make_initial_from_config(config)
    n_steps = _step_count(state.t, config)  # checks the span before any other work
    # The ledger rows and the CFL bound borrow the stepper's workspace,
    # idle before the first step and at each sample.
    stepper = _StepWork(config)
    bound = cfl_bound(state, config, stepper.work)
    if config.dt > bound:
        log.warning(
            "dt = %g exceeds the advective stability bound %g; expect blow-up",
            config.dt,
            bound,
        )

    ledger = EnergyLedger(config.damping, n_steps, config_hash(config),
                          (config.nu_h, config.nu_v))

    # Only the latest sample is held here, so the initial state is freed
    # after the first step instead of living beside every later sample.
    steps = trajectory(state, config, work=stepper)
    del state
    try:
        for t, w, acc in steps:
            snapshot = MhdState(w, config.grid, t)
            ledger.append(t, ledger_row(snapshot, config.damping, stepper.work), acc)
    except BlowUpError as exc:
        exc.ledger = ledger
        raise
    return snapshot, ledger


# Checkpoints ---------------------------------------------------------------


def save_checkpoint(path, state: MhdState) -> None:
    """Fixed-layout little-endian binary snapshot; bit-exact round trip.

    Layout (version 2): magic "MHDF", format version (u32), N (i64),
    truncation radius (f64), time (f64), then the six coefficient arrays
    u1 u2 u3 b1 b2 b3 of ``state``, each as its half spectrum (N, N, N/2+1)
    complex128 in C order, zero outside the ball.
    """
    grid = state.grid
    header = struct.pack(
        CHECKPOINT_HEADER,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        grid.n_modes,
        grid.truncation_radius,
        state.t,
    )
    half = np.zeros(grid.spectral_shape, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        for field in state.coeffs:  # one half spectrum at a time
            half.reshape(-1)[grid.index] = field
            fh.write(half.data)


def load_checkpoint(path) -> MhdState:
    """Read a version 2 checkpoint and check the state it holds.

    Malformed files, and files of any other version, raise ValueError
    before any allocation sized by the header.  The time must be finite.
    The six half spectra are read, checked and packed to the ball one at a
    time, in one buffer: each must be finite, and zero once its ball's
    slots are zeroed after packing.  The self-conjugate planes k3 = 0 and
    k3 = N/2 must be within HERMITIAN_TOL of Hermitian symmetry, relative
    to the largest |c| of the six arrays, and the state must have a
    divergence within DIV_FREE_RTOL of its H1 norm.  Otherwise ValueError.
    The state owns its coefficient array, which is writable.
    """
    header_size = struct.calcsize(CHECKPOINT_HEADER)
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ValueError(f"{path}: not a checkpoint file ({len(header)}-byte header)")
        magic, version, n, radius, t = struct.unpack(CHECKPOINT_HEADER, header)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        payload = os.fstat(fh.fileno()).st_size - header_size
        if n < 1 or payload != 6 * n * n * (n // 2 + 1) * 16:
            raise ValueError(
                f"{path}: payload of {payload} bytes does not hold six N = {n} "
                f"version {version} coefficient arrays"
            )
        if not math.isfinite(t):
            raise ValueError(f"{path}: checkpoint time {t} is not finite")
        grid = GridSpec(n_modes=int(n), truncation_radius=float(radius))
        coeffs = np.empty((6,) + grid.index.shape, dtype=np.complex128)
        field = np.empty(grid.spectral_shape, dtype="<c16")
        defect = scale = 0.0
        for packed in coeffs:
            if fh.readinto(field) != field.nbytes:
                raise ValueError(f"{path}: checkpoint payload changed while it was read")
            if not np.all(np.isfinite(field)):
                raise ValueError(f"{path}: state has non-finite coefficients")
            packed[...] = truncate_coeffs(field, grid)
            defect = max(defect, hermitian_defect(field))
            field.reshape(-1)[grid.index] = 0.0
            if np.any(field):
                raise ValueError(f"{path}: state is nonzero outside |k| < {radius:g}")
            scale = max(scale, float(np.max(np.abs(packed))))
    del field  # freed before the divergence check allocates
    if scale and defect / scale > HERMITIAN_TOL:
        raise ValueError(
            f"{path}: state is not a real field (Hermitian defect {defect / scale:.3e} "
            f"> {HERMITIAN_TOL:.0e})"
        )
    state = MhdState(coeffs, grid, float(t))
    divergence = state.max_divergence()
    h1 = h1_norm_pair(state.coeffs, grid)
    if divergence > DIV_FREE_RTOL * h1:
        raise ValueError(
            f"{path}: divergence {divergence:.3e} exceeds {DIV_FREE_RTOL:.0e} x H1 norm {h1:.3e}"
        )
    return state
