"""Time stepping, initial conditions and checkpointing."""

import dataclasses
import itertools
import struct
from pathlib import Path

import numpy as np
import pytest

from mhddamp import (
    BlowUpError,
    DampingSpec,
    GridSpec,
    InitialCondition,
    MhdState,
    SolverConfig,
    load_checkpoint,
    make_initial,
    run,
    save_checkpoint,
)
from mhddamp.energy import INSTANT_COLUMNS
from mhddamp.fields import hermitian_defect
from mhddamp.integrator import (
    DIV_FREE_RTOL, cfl_bound, config_hash, make_initial_from_config, trajectory,
)
from mhddamp.operators import h1_norm_pair, leray_project_coeffs, truncate_coeffs

from _helpers import (
    MALFORMED_CHECKPOINTS,
    fft_grid,
    half_tables,
    ifft_grid,
    malformed_checkpoint,
    mesh,
    slab_planes,
    unpack,
    write_checkpoint,
)

GOLDEN = Path(__file__).parent / "golden"

# Analytic initial states, with modes of every sign of k3 for single_mode;
# each lies in the ball at N = 8, 16 and 32.
ANALYTIC_CASES = [
    ("taylor_green_like", {}),
    ("taylor_green_like", {"amplitude": 2.5, "b_amplitude": -0.3}),
    ("single_mode", {"mode": (0, 0, 1), "amplitude": 0.7}),
    ("single_mode", {"mode": (1, 2, -1)}),
    ("single_mode", {"mode": (1, -2, 0)}),
    ("single_mode", {"mode": (-2, 1, 1), "amplitude": -3.0}),
    ("single_mode", {"mode": (1, 0, 0)}),
]
ANALYTIC_IDS = [f"{kind}-{i}" for i, (kind, _) in enumerate(ANALYTIC_CASES)]


def sampled_state(kind, grid, amplitude=1.0, b_amplitude=0.5, mode=None):
    """Oracle of make_initial's analytic kinds: the documented fields
    sampled on the grid, transformed and Leray-projected."""
    x1, x2, x3 = mesh(grid)
    values = np.zeros((6,) + grid.shape)
    if kind == "single_mode":
        k = np.array(mode, dtype=np.float64)
        k_hat = k / np.linalg.norm(k)
        e = np.array([0.0, 1.0, 0.0]) if abs(k_hat[0]) > 0.999 else np.array([1.0, 0.0, 0.0])
        e -= np.dot(e, k_hat) * k_hat
        e /= np.linalg.norm(e)
        phase = k[0] * x1 + k[1] * x2 + k[2] * x3
        values[:3] = amplitude * np.sin(phase) * e[:, None, None, None]
    else:
        sin, cos = np.sin, np.cos
        values[0] = amplitude * sin(x1) * cos(x2) * cos(x3)
        values[1] = -amplitude * cos(x1) * sin(x2) * cos(x3)
        ab = amplitude * b_amplitude
        values[3] = ab * cos(x1) * sin(x2) * sin(x3)
        values[4] = ab * sin(x1) * cos(x2) * sin(x3)
        values[5] = -2.0 * ab * sin(x1) * sin(x2) * cos(x3)
    return leray_project_coeffs(fft_grid(values, grid), grid)


def stepped_states(state, cfg):
    """The state after each step, read from the engine with ledger_stride = 1."""
    cfg = dataclasses.replace(cfg, ledger_stride=1)
    for t, w, _ in itertools.islice(trajectory(state, cfg, want_diag=False), 1, None):
        yield MhdState(w, cfg.grid, t)


class TestMakeInitial:
    def test_random_divfree_hits_target_exactly(self, grid16):
        state = make_initial("random_divfree", grid16, seed=3, target_h1=0.01)
        assert abs(h1_norm_pair(state.coeffs, grid16) - 0.01) <= 1e-12

    def test_zero_target_gives_zero_field(self, grid16):
        state = make_initial("random_divfree", grid16, seed=3, target_h1=0.0)
        assert np.all(state.u == 0.0) and np.all(state.b == 0.0)

    def test_same_seed_identical(self, grid16):
        a = make_initial("random_divfree", grid16, seed=5, target_h1=1.0)
        b = make_initial("random_divfree", grid16, seed=5, target_h1=1.0)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.b, b.b)

    def test_single_mode_is_sine(self, grid16):
        state = make_initial("single_mode", grid16, mode=(0, 0, 1), amplitude=0.7)
        _, _, x3 = mesh(grid16)
        u = ifft_grid(state.u, grid16)
        expected = 0.7 * np.sin(x3) + np.zeros_like(u[0])
        assert np.max(np.abs(u[0] - expected)) <= 1e-12
        assert np.max(np.abs(u[1:])) <= 1e-14
        assert np.all(state.b == 0.0)

    def test_all_kinds_divergence_free(self, grid16):
        for kind, kw in [
            ("taylor_green_like", {}),
            ("random_divfree", {"target_h1": 1.0}),
            ("single_mode", {"mode": (1, 2, 0)}),
        ]:
            state = make_initial(kind, grid16, seed=1, **kw)
            assert state.max_divergence() <= 1e-10
        # every kind and mode, within the tolerance a loaded checkpoint is held to
        cases = ANALYTIC_CASES + [("random_divfree", {"target_h1": 3.0}),
                                  ("single_mode", {"mode": (0, 4, 0)})]  # outside the ball
        for n, (kind, kw) in itertools.product((8, 16), cases):
            grid = GridSpec(n_modes=n)
            state = make_initial(kind, grid, seed=2, **kw)
            assert state.max_divergence() <= DIV_FREE_RTOL * h1_norm_pair(state.coeffs, grid)

    @pytest.mark.parametrize(
        "kind,kw,match",
        [
            ("single_mode", {"mode": (1.5, 0, 0)}, "mode"),
            ("random_divfree", {"target_h1": -2.0}, "target_h1"),
            ("random_divfree", {"target_h1": float("nan")}, "finite"),
            ("random_divfree", {}, "target_h1"),
            ("from_checkpoint", {}, "path"),
            pytest.param("vortex_ring", {}, r"^kind must be one of \('taylor_green_like', "
                         r"'random_divfree', 'single_mode', 'from_checkpoint'\), got 'vortex_ring'$",
                         id="vortex_ring-kw5-unknown"),
            # components outside (-N/2, N/2] alias to another wavenumber
            ("single_mode", {"mode": (15, 0, 1)}, "wavenumber .15, 0, 1. has a component outside"),
            ("single_mode", {"mode": (10**30, 0, 1)}, "aliases"),
            ("single_mode", {"mode": (0, -8, 1)}, "-8, 8"),
            ("single_mode", {"mode": (0, 0, 9)}, "-8, 8"),
            # amplitude * b_amplitude overflows
            ("taylor_green_like", {"amplitude": 1e200, "b_amplitude": 1e200}, "not finite"),
        ],
    )
    def test_invalid_arguments_rejected(self, grid16, kind, kw, match):
        with pytest.raises(ValueError, match=match):
            make_initial(kind, grid16, **kw)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("kind,kw", ANALYTIC_CASES, ids=ANALYTIC_IDS)
    def test_analytic_state_matches_sampled_oracle(self, n, kind, kw):
        grid = GridSpec(n_modes=n)
        got = make_initial(kind, grid, **kw).coeffs
        expected = sampled_state(kind, grid, **kw)
        assert np.max(np.abs(got - expected)) <= 2e-15 * np.max(np.abs(got))

    @pytest.mark.parametrize("kind,kw", ANALYTIC_CASES, ids=ANALYTIC_IDS)
    def test_analytic_state_zero_off_its_modes(self, grid16, kind, kw):
        coeffs = make_initial(kind, grid16, **kw).coeffs
        k = np.stack([grid16.kx, grid16.ky, grid16.kz], axis=1)
        if kind == "taylor_green_like":
            modes = [(s1, s2, 1) for s1 in (1, -1) for s2 in (1, -1)]
            assert np.count_nonzero(coeffs) == 20  # two u and three b components each
        else:  # the one of k and -k with k3 > 0, both when k3 = 0
            mode = np.array(kw["mode"])
            modes = [m for m in (mode, -mode) if m[2] >= 0]
        held = np.any(coeffs != 0.0, axis=0)
        assert sorted(map(tuple, k[held])) == sorted(map(tuple, np.array(modes, dtype=float)))

    @pytest.mark.parametrize("mode", [(0, 0, 6), (8, 0, 0), (4, -4, 1)])
    def test_single_mode_outside_ball_is_zero(self, grid16, mode):
        # in range, |k| >= R = 16/3: no mode of the ball is held
        state = make_initial("single_mode", grid16, mode=mode)
        assert not np.any(state.coeffs)

    @pytest.mark.parametrize("radius", [0.9, 1.0])
    def test_radius_without_nonzero_wavenumber_rejected(self, tmp_path, capsys, radius):
        from mhddamp.cli import ExperimentConfig, main, save_config

        grid = GridSpec(n_modes=8, truncation_radius=radius)
        with pytest.raises(ValueError, match="no nonzero wavenumber"):
            make_initial("random_divfree", grid, target_h1=1.0)
        ic = InitialCondition(kind="random_divfree", target_h1=1.0)
        cfg = ExperimentConfig(
            name="ball", solver=SolverConfig(grid=grid, dt=1e-2, t_end=0.02, initial_condition=ic)
        )
        save_config(cfg, tmp_path / "cfg.json")
        argv = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err and "no nonzero wavenumber" in err

    def test_random_field_is_hermitian(self, grid16):
        state = make_initial("random_divfree", grid16, seed=9, target_h1=1.0)
        for field in (state.u, state.b):
            assert hermitian_defect(unpack(field, grid16)) <= 1e-12 * np.max(np.abs(field))


class TestStep:
    def test_zero_state_stays_zero(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=1e-2, t_end=1e-2,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=0.0),
        )
        state = make_initial_from_config(cfg)
        (out,) = stepped_states(state, cfg)
        assert np.all(out.u == 0.0) and np.all(out.b == 0.0)
        assert out.t == pytest.approx(1e-2)

    def test_viscous_decay_of_invariant_mode(self):
        # u = sin(x3) e1 is annihilated by the nonlinearity, so the
        # integrating factor reproduces exp(-nu_v t) exactly
        grid = GridSpec(n_modes=16)
        cfg = SolverConfig(
            grid=grid, dt=1e-3, t_end=1.0,
            initial_condition=InitialCondition(kind="single_mode", mode=(0, 0, 1)),
        )
        final, _ = run(cfg)
        _, _, x3 = mesh(grid)
        u = ifft_grid(final.u, grid)
        exact = np.exp(-1.0) * np.sin(x3) + np.zeros_like(u[0])
        assert np.max(np.abs(u[0] - exact)) <= 1e-8

    def test_anisotropic_viscosity_decay(self):
        # a vertical mode decays at the vertical rate only
        grid = GridSpec(n_modes=16)
        cfg = SolverConfig(
            grid=grid, dt=1e-3, t_end=0.5, nu_h=5.0, nu_v=2.0,
            initial_condition=InitialCondition(kind="single_mode", mode=(0, 0, 1)),
        )
        final, _ = run(cfg)
        _, _, x3 = mesh(grid)
        u = ifft_grid(final.u, grid)
        exact = np.exp(-2.0 * 0.5) * np.sin(x3) + np.zeros_like(u[0])
        assert np.max(np.abs(u[0] - exact)) <= 1e-10

    def test_cfl_violation_logged(self, grid16, caplog):
        import logging

        cfg = SolverConfig(
            grid=grid16, dt=0.5, t_end=0.5,
            initial_condition=InitialCondition(kind="single_mode", amplitude=50.0),
        )
        with caplog.at_level(logging.WARNING, logger="mhddamp.integrator"):
            try:
                run(cfg)
            except BlowUpError:
                pass
        assert any("stability bound" in rec.message for rec in caplog.records)

    def test_richardson_order(self, grid16):
        # two steps of dt/2 against one step of dt; local error is O(dt^5)
        ic = InitialCondition(kind="random_divfree", target_h1=40.0)
        errs = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            one = SolverConfig(grid=grid16, dt=dt, t_end=dt, initial_condition=ic, seed=2)
            two = SolverConfig(grid=grid16, dt=dt / 2, t_end=dt, initial_condition=ic, seed=2)
            s1, _ = run(one)
            s2, _ = run(two)
            err = np.sqrt(
                np.sum(np.abs(s1.u - s2.u) ** 2)
                + np.sum(np.abs(s1.b - s2.b) ** 2)
            )
            errs.append(err)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.8

    def test_truncation_after_step_is_noop(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=2e-2,
            initial_condition=InitialCondition(kind="taylor_green_like", amplitude=1.0),
            damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
        )
        state = make_initial_from_config(cfg)
        state = next(itertools.islice(stepped_states(state, cfg), 4, None))  # after 5 steps
        outside = ~half_tables(grid16).keep_mask
        assert np.all(unpack(state.u, grid16)[:, outside] == 0.0)
        assert np.all(unpack(state.b, grid16)[:, outside] == 0.0)
        again = truncate_coeffs(unpack(state.u, grid16), grid16)
        assert np.array_equal(again, state.u)

    def test_divergence_and_symmetry_preserved(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=2e-2,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=2.0),
            damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        )
        state = make_initial_from_config(cfg)
        states = list(stepped_states(state, cfg))
        assert len(states) == 10
        for state in states:
            assert state.max_divergence() <= 1e-10
            assert hermitian_defect(unpack(state.u, grid16)) <= 1e-12 * np.max(np.abs(state.u))

    def test_blow_up_signal(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=0.1, t_end=2.0,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=1e3),
            seed=1,
        )
        with pytest.raises(BlowUpError) as info:
            run(cfg)
        assert info.value.time > 0
        assert info.value.ledger is not None
        assert len(info.value.ledger) >= 1

    def test_yielded_arrays_never_modified(self, grid16):
        # each step's workspace is reused; what trajectory yields must not be
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=12 * 2e-3, ledger_stride=1, seed=3,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
            damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        )
        kept = [(w, w.copy()) for _, w, _ in trajectory(make_initial_from_config(cfg), cfg)]
        assert len(kept) == 13
        for w, copy in kept:
            assert w.tobytes() == copy.tobytes()
        arrays = [w for w, _ in kept]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    def test_yielded_arrays_vanish_outside_ball_and_checkpoint_reloads(self, grid16, tmp_path):
        from mhddamp.cli import ExperimentConfig, main, save_config

        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=12 * 2e-3, ledger_stride=1, seed=3,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
            damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        )
        samples = [w for _, w, _ in trajectory(make_initial_from_config(cfg), cfg)]
        assert len(samples) == 13
        outside = ~half_tables(grid16).keep_mask
        for w in samples:
            assert w.shape == (6, grid16.index.size)  # only the ball is stored
            assert not np.any(unpack(w, grid16)[:, outside])
        path = tmp_path / "cfg.json"
        save_config(ExperimentConfig(name="ball", solver=cfg, checks=("l2",)), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        state = load_checkpoint(tmp_path / "out" / "checkpoint.mhdf")
        assert np.array_equal(state.coeffs, samples[-1])

    def test_twin_steps_on_one_engine(self, grid16, monkeypatch):
        from mhddamp import integrator, twin_run

        engines = []
        init = integrator._StepWork.__init__

        def record(self, config):
            init(self, config)
            engines.append(self)

        monkeypatch.setattr(integrator._StepWork, "__init__", record)
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=3 * 2e-3,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
            damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        )
        # the reference, its replay and the perturbed copy take turns on it
        assert twin_run(cfg, 1e-6).reproducible
        assert len(engines) == 1
        # the grid's tables are shared, and read-only
        assert all(not t.flags.writeable for t in (grid16.index, grid16.k_sq, grid16.kx))

    def test_span_must_be_whole_steps_from_state_time(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=1e-2, t_end=0.1,
            initial_condition=InitialCondition(kind="single_mode"),
        )
        state = make_initial_from_config(cfg)
        state.t = 0.005
        with pytest.raises(ValueError, match="multiple of dt"):
            next(trajectory(state, cfg))
        state.t = 0.2
        with pytest.raises(ValueError, match="precedes"):
            next(trajectory(state, cfg))


class TestRun:
    @pytest.mark.parametrize("planes", (1, 5))
    def test_slabs_step_the_one_slab_states(self, grid16, planes):
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=10 * 2e-3, ledger_stride=5,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
            damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        )
        want, want_ledger = run(cfg)
        with slab_planes(16, planes):
            got, ledger = run(cfg)
        assert np.array_equal(got.coeffs, want.coeffs)
        for name, column in want_ledger.columns.items():
            # the row's damping columns, from lbeta on, and the stage-weighted
            # damping integral sum per-slab partial sums
            rtol = 1e-15 if name.removeprefix("int_") in INSTANT_COLUMNS[3:] else 0.0
            assert np.allclose(ledger.column(name), column, rtol=rtol, atol=0.0), name

    def test_t_end_zero_single_row(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=1e-2, t_end=0.0,
            initial_condition=InitialCondition(kind="single_mode"),
        )
        _, ledger = run(cfg)
        assert len(ledger) == 1
        assert ledger.times[0] == 0.0

    def test_ledger_row_times(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=1e-2, t_end=0.05, ledger_stride=2,
            initial_condition=InitialCondition(kind="single_mode"),
        )
        _, ledger = run(cfg)
        assert ledger.times == pytest.approx([0.0, 0.02, 0.04, 0.05])

    def test_deterministic_ledger(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=0.05,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=1.0),
            damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
            seed=12,
        )
        _, led1 = run(cfg)
        _, led2 = run(cfg)
        assert led1.to_csv_string() == led2.to_csv_string()

    def test_config_validation(self, grid16):
        ic = InitialCondition(kind="single_mode")
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, dt=-1e-3, t_end=1.0, initial_condition=ic)
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, dt=3e-3, t_end=1e-2, initial_condition=ic)
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, dt=1e-3, t_end=1.0, initial_condition=ic, nu_h=0.0)
        with pytest.raises(ValueError):
            InitialCondition(kind="random_divfree")  # missing target
        for bad in (
            {"dt": float("nan")}, {"t_end": float("inf")}, {"nu_h": float("nan")},
            {"nu_v": float("-inf")}, {"cfl_target": float("nan")},
            {"ledger_stride": 2.5}, {"ledger_stride": 0}, {"ledger_stride": True},
            {"seed": 2.5}, {"seed": -1},
        ):
            args = {"dt": 1e-3, "t_end": 1e-2, **bad}
            with pytest.raises(ValueError, match="finite|ledger_stride|seed"):
                SolverConfig(grid=grid16, initial_condition=ic, **args)
        with pytest.raises(ValueError, match="finite"):
            InitialCondition(kind="random_divfree", target_h1=float("nan"))
        with pytest.raises(ValueError, match="mode"):
            InitialCondition(kind="single_mode", mode=(1.5, 0, 0))
        with pytest.raises(ValueError, match="mode"):
            InitialCondition(kind="single_mode", mode=(1, 0))

    def test_cfl_bound_scales_with_amplitude(self, grid16):
        ic_small = InitialCondition(kind="single_mode", amplitude=0.1)
        ic_big = InitialCondition(kind="single_mode", amplitude=10.0)
        cfg_s = SolverConfig(grid=grid16, dt=1e-3, t_end=0.0, initial_condition=ic_small)
        cfg_b = SolverConfig(grid=grid16, dt=1e-3, t_end=0.0, initial_condition=ic_big)
        bound_s = cfl_bound(make_initial_from_config(cfg_s), cfg_s)
        bound_b = cfl_bound(make_initial_from_config(cfg_b), cfg_b)
        assert bound_s == pytest.approx(100.0 * bound_b, rel=1e-6)

    @pytest.mark.parametrize("planes", (1, 3, 5))
    def test_cfl_bound_in_narrow_slabs(self, grid16, planes):
        # the slab maxima of the point values are those of the whole grid
        cfg = SolverConfig(grid=grid16, dt=1e-3, t_end=0.0, initial_condition=InitialCondition(
            kind="random_divfree", target_h1=10.0))
        state = make_initial_from_config(cfg)
        want = cfl_bound(state, cfg)
        with slab_planes(16, planes):
            assert cfl_bound(state, cfg) == want

    def test_config_hash_sensitivity(self, grid16):
        ic = InitialCondition(kind="single_mode")
        a = SolverConfig(grid=grid16, dt=1e-3, t_end=1e-2, initial_condition=ic, seed=1)
        b = SolverConfig(grid=grid16, dt=1e-3, t_end=1e-2, initial_condition=ic, seed=2)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(
            SolverConfig(grid=grid16, dt=1e-3, t_end=1e-2, initial_condition=ic, seed=1)
        )

    def test_config_hash_reads_checkpoint_content(self, grid8, tmp_path):
        def restart(path):
            ic = InitialCondition(kind="from_checkpoint", path=str(path))
            return SolverConfig(grid=grid8, dt=1e-2, t_end=0.1, initial_condition=ic)

        state = make_initial("random_divfree", grid8, seed=1, target_h1=1.0)
        path, copy = tmp_path / "a.mhdf", tmp_path / "b.mhdf"
        save_checkpoint(path, state)
        save_checkpoint(copy, state)
        first = config_hash(restart(path))
        assert config_hash(restart(copy)) == first  # same content, other path
        state.t = 0.05
        save_checkpoint(path, state)  # other content, same path
        assert config_hash(restart(path)) != first


class TestCheckpoint:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_file_is_header_then_coefficients(self, grid16, tmp_path, order):
        state = make_initial("random_divfree", grid16, seed=6, target_h1=1.0)
        state = MhdState(np.asarray(state.coeffs, order=order), grid16, 0.5)
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, state)
        header = struct.pack("<4sIqdd", b"MHDF", 2, 16, grid16.truncation_radius, 0.5)
        assert path.read_bytes() == header + unpack(state.coeffs, grid16).astype("<c16").tobytes()

    def test_bit_exact_round_trip(self, grid16, tmp_path):
        state = make_initial("random_divfree", grid16, seed=9, target_h1=1.0)
        state.t = 0.625
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.t == state.t
        assert loaded.grid.n_modes == 16
        assert loaded.grid.truncation_radius == grid16.truncation_radius
        assert np.array_equal(loaded.u.view(np.float64), state.u.view(np.float64))
        assert np.array_equal(loaded.b.view(np.float64), state.b.view(np.float64))

    def test_restart_continues_trajectory(self, grid16, tmp_path):
        ic = InitialCondition(kind="taylor_green_like", amplitude=0.5)
        full = SolverConfig(grid=grid16, dt=1e-2, t_end=0.1, initial_condition=ic)
        final_full, _ = run(full)

        half = SolverConfig(grid=grid16, dt=1e-2, t_end=0.05, initial_condition=ic)
        mid, _ = run(half)
        path = tmp_path / "mid.mhdf"
        save_checkpoint(path, mid)
        resumed = SolverConfig(
            grid=grid16, dt=1e-2, t_end=0.1,
            initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)),
        )
        final_resumed, _ = run(resumed)
        assert np.array_equal(final_resumed.u, final_full.u)
        assert np.array_equal(final_resumed.b, final_full.b)

    def test_restart_state_is_on_the_configured_grid(self, grid16, tmp_path):
        # not on a second GridSpec built by the reader, whose tables would
        # live beside the configured grid's as long as the state
        state = make_initial("random_divfree", grid16, seed=2, target_h1=1.0)
        state.t = 0.375
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, state)
        restart = make_initial("from_checkpoint", grid16, path=str(path))
        assert restart.grid is grid16
        assert restart.t == state.t
        assert restart.coeffs.tobytes() == state.coeffs.tobytes()

    def test_grid_mismatch_rejected(self, grid8, grid16, tmp_path):
        state = make_initial("single_mode", grid8)
        path = tmp_path / "small.mhdf"
        save_checkpoint(path, state)
        with pytest.raises(ValueError, match="does not match"):
            make_initial("from_checkpoint", grid16, path=str(path))

    @pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
    def test_malformed_file_rejected_before_allocation(self, grid8, tmp_path, case):
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, make_initial("single_mode", grid8))
        path.write_bytes(malformed_checkpoint(path.read_bytes(), case))
        with pytest.raises(ValueError, match="not a checkpoint|payload"):
            load_checkpoint(path)

    def test_half_size_v2_reader(self, grid16, tmp_path):
        state = make_initial("random_divfree", grid16, seed=4, target_h1=1.0)
        state.t = 0.25
        path = tmp_path / "v2.mhdf"
        save_checkpoint(path, state)
        assert path.stat().st_size - 32 == 6 * 16 * 16 * 9 * 16
        # one packed (6, M) array u1 u2 u3 b1 b2 b3; u and b are views of it,
        # and the file holds their half spectra
        assert state.coeffs.shape == (6, grid16.index.size)
        assert np.shares_memory(state.coeffs, state.u)
        assert np.shares_memory(state.coeffs, state.b)
        assert path.read_bytes()[32:] == unpack(state.coeffs, grid16).tobytes()
        loaded = load_checkpoint(path)
        assert loaded.t == state.t
        assert np.array_equal(loaded.u, state.u)
        assert np.array_equal(loaded.b, state.b)
        assert loaded.coeffs.flags.writeable and loaded.coeffs.flags.owndata
        loaded.u[0, 0] = 1.0

    def test_golden_v2_file(self, tmp_path):
        # tests/golden/state-n8.mhdf was written by the version 2 writer;
        # the writer still writes its bytes, and the reader reads it exactly
        golden = (GOLDEN / "state-n8.mhdf").read_bytes()
        state = make_initial("random_divfree", GridSpec(n_modes=8), seed=7, target_h1=1.0)
        state.t = 0.375
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, state)
        assert path.read_bytes() == golden
        loaded = load_checkpoint(GOLDEN / "state-n8.mhdf")
        assert loaded.t == state.t
        assert loaded.coeffs.tobytes() == state.coeffs.tobytes()

    @pytest.mark.parametrize("version", [1, 3])
    def test_unsupported_version_rejected(self, grid8, tmp_path, capsys, version):
        state = make_initial("random_divfree", grid8, seed=2, target_h1=1.0)
        path = tmp_path / "state.mhdf"
        write_checkpoint(path, grid8, unpack(state.coeffs, grid8), state.t, version)
        assert_rejected(path, grid8, tmp_path, capsys,
                        f"unsupported checkpoint version {version}")

    @pytest.mark.parametrize("version", [2])
    @pytest.mark.parametrize(
        "case,match",
        [
            ("nan_time", "time nan is not finite"),
            ("nan_coefficient", "non-finite coefficients"),
            ("mode_outside_ball", "outside"),
            ("divergent", "divergence"),
            ("non_hermitian_plane", "Hermitian defect"),
        ],
    )
    def test_invalid_state_rejected(self, grid8, tmp_path, capsys, case, match, version):
        state = make_initial("random_divfree", grid8, seed=2, target_h1=1.0)
        coeffs, t = unpack(state.coeffs, grid8), state.t  # u1 u2 u3 b1 b2 b3
        if case == "nan_time":
            t = float("nan")
        elif case == "nan_coefficient":
            coeffs[0, 1, 0, 1] = np.nan
        elif case == "mode_outside_ball":
            coeffs[3, 0, 0, 3] = 1e-3  # |k| = 3 > R = 8/3
        elif case == "divergent":
            coeffs[0, 1, 0, 1] += 0.1  # k = (1, 0, 1), not orthogonal to e1
        else:
            coeffs[2, 1, 1, 0] += 0.1  # k3 = 0 plane, mirror (-1, -1, 0) unchanged
        path = tmp_path / "state.mhdf"
        write_checkpoint(path, grid8, coeffs, t, version)
        assert_rejected(path, grid8, tmp_path, capsys, match)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mhdf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


def assert_rejected(path, grid, tmp_path, capsys, match):
    """``load_checkpoint`` rejects the file, and a restart from it exits 1
    with one line of error."""
    from mhddamp.cli import ExperimentConfig, main, save_config

    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)
    cfg = ExperimentConfig(
        name="restart",
        solver=SolverConfig(
            grid=grid, dt=1e-2, t_end=0.02,
            initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)),
        ),
    )
    save_config(cfg, tmp_path / "cfg.json")
    argv = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err and match in err
    assert not (tmp_path / "out").exists()
