"""Traced memory: a trajectory's peak against grid.working_set_bytes, a
workspace's arrays against the model's, a right-hand side against its
forward output, a slab's point values against one slab, the ledger row's
integrands against one slab of grad q, a ledger row against a step and
against a stage's transients, the damping-identity check and a twin run
against two workspaces, and the set-up steps (initial states, checkpoint
read and hash, CFL bound) against the packed and slab-sized transients
they are allowed."""

import tracemalloc

import numpy as np
import pytest

from mhddamp import (
    DampingSpec, GridSpec, InitialCondition, SolverConfig, load_checkpoint, make_initial, run,
    save_checkpoint, twin_run,
)
from mhddamp.energy import _velocity_squares, check_damping_identity, ledger_row
from mhddamp.fields import slab_pass
from mhddamp.grid import (
    STEP_TRANSIENT_GRIDS, WORKSPACE_GRIDS, _layout_bytes, slab_width, working_set_bytes,
)
from mhddamp.integrator import _StepWork, cfl_bound, config_hash
from mhddamp.nonlinear import Workspace, _rhs_core


MiB = 2**20

DAMPINGS = {
    "power5": DampingSpec(kind="power", alpha=1.0, beta=5.0),
    "log1": DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
}
GRIDS = {n: GridSpec(n_modes=n) for n in (16, 32, 64)}  # 32: four slabs, 64: 32


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated by ``fn(*args, **kwargs)`` at its peak, beyond what
    was held when it was called."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("damping", sorted(DAMPINGS))
@pytest.mark.parametrize("n", sorted(GRIDS))
def test_run_peak_within_working_set(n, damping):
    grid = GRIDS[n]
    cfg = SolverConfig(
        grid=grid, dt=1e-3, t_end=2e-3, ledger_stride=1, seed=5,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
        damping=DAMPINGS[damping],
    )
    m = grid.index.size
    state_bytes = 6 * m * 16  # the packed initial state
    assert traced_peak(run, cfg) <= working_set_bytes(n, m) + state_bytes


@pytest.mark.parametrize("damping", sorted(DAMPINGS))
def test_ledger_row_peak_below_rhs_with_workspace(damping):
    # In a run the stepper's workspace is held throughout and lent to each
    # row, so a row that allocates less than one step, whose right-hand
    # sides run in that workspace beside the next state, does not set the
    # process's peak.  (A lent row can exceed a bare right-hand side: at
    # N = 32, four slabs, 0.94 MiB against 0.73 MiB.)
    grid = GRIDS[32]
    state = make_initial("random_divfree", grid, seed=3, target_h1=10.0)
    spec = DAMPINGS[damping]
    stepper = _StepWork(SolverConfig(
        grid=grid, dt=1e-3, t_end=1e-3, damping=spec,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
    ))
    row = traced_peak(ledger_row, state, spec, stepper.work)
    step = traced_peak(stepper.advance, state.coeffs)
    assert row <= step


@pytest.mark.parametrize("damping", ["none", "power5", "log1"])
@pytest.mark.parametrize("n", [16, 20])  # one slab
def test_rhs_drops_point_values_before_forward(n, damping):
    # with the workspace lent, a right-hand side holds scipy's forward
    # output and the tendency gathered to the ball, but no slab's point
    # values (inverse output, damping temporaries) beside them
    grid = GridSpec(n_modes=n)
    state = make_initial("random_divfree", grid, seed=3, target_h1=10.0)
    spec = DAMPINGS.get(damping, DampingSpec())
    work = Workspace(grid)
    assert work.width == n
    size = _layout_bytes(n, grid.index.size, grid.truncation_radius, work.width)
    budget = sum(count * size[layout] for name, count, layout in STEP_TRANSIENT_GRIDS
                 if name in ("forward_output", "tendency"))
    peak = traced_peak(_rhs_core, state.coeffs, grid, spec, True, work)
    assert peak <= budget + 2**16


def test_slab_values_are_freed_when_a_body_drops_them():
    # the pass hands a slab's point values to its body as a temporary: a
    # body that drops them and allocates as much peaks at one slab's
    # values (0.375 MiB at N = 32, four slabs of 8 planes), one that keeps
    # them at two
    grid = GRIDS[32]
    state = make_initial("random_divfree", grid, seed=3, target_h1=10.0)
    work = Workspace(grid)
    values = 6 * work.width * grid.n_modes**2 * 8

    def dropping(x0, phys, out):
        shape = phys.shape
        del phys
        np.ones(shape)

    def keeping(x0, phys, out):
        np.ones(phys.shape)

    assert traced_peak(slab_pass, state.coeffs, grid, work, dropping) <= values + 2**16
    assert traced_peak(slab_pass, state.coeffs, grid, work, keeping) >= 2 * values


@pytest.mark.parametrize("n", [16, 32])  # one slab, four slabs
def test_row_integrands_see_one_slab_of_grad_q(n):
    # the row's integrands allocate beside q and |grad u|^2 at full size
    # and the slab's |grad q|^2, not beside the three grids of grad q
    grid = GRIDS[n]
    state = make_initial("random_divfree", grid, seed=3, target_h1=10.0)
    work = Workspace(grid)
    held = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _velocity_squares(state.u, grid, work,
                          lambda *grids: held.append(tracemalloc.get_traced_memory()[0] - before))
    finally:
        tracemalloc.stop()
    assert max(held) <= (2 * n + work.width) * n * n * 8 + 2**14


ROW_DAMPINGS = {
    "power2": DampingSpec(kind="power", alpha=1.0, beta=2.0),
    "power5": DAMPINGS["power5"],
    "log1": DAMPINGS["log1"],
    "log3": DampingSpec(kind="generalized", alpha=1.0, f_id="log3"),
}


@pytest.fixture(scope="module", params=[16, 32, 48, 64], ids=lambda n: f"n{n}")
def sample(request):
    """A state at N = 16 (one slab), 32 (four slabs), 48 (16) or 64 (32)
    and a workspace of its grid, as a trajectory lends it to a ledger row."""
    grid = GridSpec(n_modes=request.param)
    return make_initial("random_divfree", grid, seed=3, target_h1=10.0), Workspace(grid)


@pytest.mark.parametrize("damping", sorted(ROW_DAMPINGS))
def test_ledger_row_within_stage_transients(sample, damping):
    # working_set_bytes budgets a trajectory's transients by a stage's
    # alone, so a row with the stepper's workspace lent must fit them.
    state, work = sample
    grid = state.grid
    n = grid.n_modes
    size = _layout_bytes(n, grid.index.size, grid.truncation_radius, slab_width(n))
    stage = sum(count * size[layout] for _, count, layout in STEP_TRANSIENT_GRIDS)
    assert traced_peak(ledger_row, state, ROW_DAMPINGS[damping], work) <= stage


def test_slab_decomposition_is_pinned():
    # a run's slab sums, hence its artifacts, depend on the slab width
    widths = {32: 8, 34: 7, 48: 3, 64: 2, 96: 1, 128: 1, 130: 1}
    assert {n: slab_width(n) for n in widths} == widths
    for n, mib in ((64, 25.03), (128, 181.71)):
        m = GridSpec(n_modes=n).index.size
        assert round(working_set_bytes(n, m) / MiB, 2) == mib


@pytest.mark.parametrize("radius", ["default", "1.5", "N/2"])
@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_workspace_allocates_its_model(n, radius):
    # the layout is decided in grid alone: the arrays a Workspace holds are
    # the WORKSPACE_GRIDS part of working_set_bytes
    r = {"default": n / 3.0, "1.5": 1.5, "N/2": n / 2.0}[radius]
    grid = GridSpec(n_modes=n, truncation_radius=r)
    size = _layout_bytes(n, grid.index.size, r, slab_width(n))
    model = sum(count * size[layout] for _, count, layout in WORKSPACE_GRIDS)
    work = Workspace(grid)
    held = sum(a.nbytes for a in vars(work).values() if isinstance(a, np.ndarray))
    assert held == model


@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_twin_run_shares_one_stepper(eps):
    # the reference, its replay and the perturbed copy step on one
    # workspace: beside it, at most one workspace's worth of stage
    # transients and states, and a (3, N, N, N) noise draw
    grid = GRIDS[64]
    cfg = SolverConfig(
        grid=grid, dt=1e-3, t_end=2e-3, ledger_stride=1, seed=5,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
        damping=DAMPINGS["log1"],
    )
    work = Workspace(grid)
    one = sum(a.nbytes for a in vars(work).values() if isinstance(a, np.ndarray))
    del work
    assert traced_peak(twin_run, cfg, eps) <= 2 * one + 24 * grid.n_modes**3


@pytest.fixture(scope="module")
def state64():
    return make_initial("random_divfree", GRIDS[64], seed=3, target_h1=10.0)


@pytest.mark.parametrize("version", [2])  # the version save_checkpoint writes
def test_checkpoint_read_within_half_the_payload(state64, tmp_path, version):
    # one array of the file is held at a time, beside the packed state
    path = tmp_path / "state.mhdf"
    save_checkpoint(path, state64)
    payload = path.stat().st_size - 32
    assert traced_peak(load_checkpoint, path) < payload / 2


def test_cfl_bound_within_one_slab(state64):
    # with the trajectory's workspace lent, only a slab's six inverse
    # grids and their absolute values are new
    grid = state64.grid
    n = grid.n_modes
    cfg = SolverConfig(grid=grid, dt=1e-3, t_end=1e-3,
                       initial_condition=InitialCondition(kind="single_mode"))
    work = Workspace(grid)
    assert traced_peak(cfl_bound, state64, cfg, work) <= 2 * 6 * work.width * n * n * 8


@pytest.mark.parametrize("damping", sorted(DAMPINGS))
def test_damping_identity_builds_one_workspace(state64, damping):
    # the check lends its workspace to its ledger row
    work = Workspace(state64.grid)
    one = sum(a.nbytes for a in vars(work).values() if isinstance(a, np.ndarray))
    assert traced_peak(check_damping_identity, state64, DAMPINGS[damping]) < 2 * one


def test_restart_hash_reads_in_chunks(state64, tmp_path):
    path = tmp_path / "state.mhdf"
    save_checkpoint(path, state64)
    cfg = SolverConfig(grid=state64.grid, dt=1e-3, t_end=1e-3,
                       initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)))
    assert traced_peak(config_hash, cfg) < MiB


def test_random_initial_state_holds_one_draw():
    # a (3, N, N, N) normal draw at a time, beside the packed state, the
    # ball's values of the two draws of a field at k and -k, their
    # positions and decay factors, and 64 KiB of small objects
    grid = GRIDS[64]
    m = grid.index.size
    draw = 3 * grid.n_modes**3 * 8
    allowed = draw + 6 * m * 16 + 2 * (3 * 2 * m * 8) + 2 * m * 8 + m * 8 + 2**16
    assert traced_peak(make_initial, "random_divfree", grid, 3, target_h1=10.0) <= allowed


@pytest.mark.parametrize("kind,kw", [("taylor_green_like", {}), ("single_mode", {"mode": (1, 2, 3)})])
def test_analytic_initial_state_holds_no_grid(kind, kw):
    # written as its modes: the packed state, the Leray projection's packed
    # k.c and temporary (two fields each), and 256 KiB for numpy's casting
    # buffers and small objects
    grid = GRIDS[64]
    m = grid.index.size
    allowed = 6 * m * 16 + 2 * (2 * m * 16) + 2**18
    assert traced_peak(make_initial, kind, grid, **kw) <= allowed
