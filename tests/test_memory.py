"""Traced memory: a trajectory's peak against grid.working_set_bytes, and a
ledger row against a right-hand side and against a stage's transients."""

import tracemalloc

import pytest

from mhddamp import DampingSpec, GridSpec, InitialCondition, SolverConfig, make_initial, run
from mhddamp.energy import ledger_row
from mhddamp.grid import STEP_TRANSIENT_GRIDS, _layout_bytes, slab_width, working_set_bytes
from mhddamp.nonlinear import Workspace, _rhs_core

DAMPINGS = {
    "power5": DampingSpec(kind="power", alpha=1.0, beta=5.0),
    "log1": DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
}
GRIDS = {n: GridSpec(n_modes=n) for n in (16, 32, 64)}  # 64: eight slabs


def traced_peak(fn, *args) -> int:
    """Bytes allocated by ``fn(*args)`` at its peak, beyond what was held
    when it was called."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
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
    # In a run the stepper's workspace is held throughout, so a row that
    # allocates less than a right-hand side and its workspace does not set
    # the process's peak.
    grid = GRIDS[32]
    state = make_initial("random_divfree", grid, seed=3, target_h1=10.0)
    spec = DAMPINGS[damping]
    row = traced_peak(ledger_row, state, spec)  # builds its Workspace
    rhs = traced_peak(_rhs_core, state.coeffs, grid, spec, True)  # builds its Workspace
    assert row <= rhs


ROW_DAMPINGS = {
    "power2": DampingSpec(kind="power", alpha=1.0, beta=2.0),
    "power5": DAMPINGS["power5"],
    "log1": DAMPINGS["log1"],
    "log3": DampingSpec(kind="generalized", alpha=1.0, f_id="log3"),
}


@pytest.fixture(scope="module", params=[16, 32, 48, 64], ids=lambda n: f"n{n}")
def sample(request):
    """A state at N = 16, 32 (one slab), 48 (four slabs) or 64 (eight) and
    a workspace of its grid, as a trajectory lends it to a ledger row."""
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
