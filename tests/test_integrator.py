"""Time stepping, initial conditions and checkpointing."""

import dataclasses
import itertools

import numpy as np
import pytest

from mhddamp import (
    BlowUpError,
    DampingSpec,
    GridSpec,
    InitialCondition,
    MhdState,
    SolverConfig,
    friedrichs_truncate,
    inverse_transform,
    load_checkpoint,
    make_initial,
    run,
    save_checkpoint,
)
from mhddamp.fields import hermitian_defect
from mhddamp.integrator import cfl_bound, config_hash, make_initial_from_config, trajectory
from mhddamp.operators import h1_norm_pair

from _helpers import MALFORMED_CHECKPOINTS, malformed_checkpoint, write_v1_checkpoint


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
        assert np.all(state.u.coeffs == 0.0) and np.all(state.b.coeffs == 0.0)

    def test_same_seed_identical(self, grid16):
        a = make_initial("random_divfree", grid16, seed=5, target_h1=1.0)
        b = make_initial("random_divfree", grid16, seed=5, target_h1=1.0)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.b.coeffs, b.b.coeffs)

    def test_single_mode_is_sine(self, grid16):
        state = make_initial("single_mode", grid16, mode=(0, 0, 1), amplitude=0.7)
        _, _, x3 = grid16.mesh()
        u = inverse_transform(state.u)
        expected = 0.7 * np.sin(x3) + np.zeros_like(u.values[0])
        assert np.max(np.abs(u.values[0] - expected)) <= 1e-12
        assert np.max(np.abs(u.values[1:])) <= 1e-14
        assert np.all(state.b.coeffs == 0.0)

    def test_all_kinds_divergence_free(self, grid16):
        for kind, kw in [
            ("taylor_green_like", {}),
            ("random_divfree", {"target_h1": 1.0}),
            ("single_mode", {"mode": (1, 2, 0)}),
        ]:
            state = make_initial(kind, grid16, seed=1, **kw)
            assert state.max_divergence() <= 1e-10

    @pytest.mark.parametrize(
        "kind,kw,match",
        [
            ("single_mode", {"mode": (1.5, 0, 0)}, "mode"),
            ("random_divfree", {"target_h1": -2.0}, "target_h1"),
            ("random_divfree", {"target_h1": float("nan")}, "finite"),
            ("random_divfree", {}, "target_h1"),
            ("from_checkpoint", {}, "path"),
            ("vortex_ring", {}, "unknown"),
        ],
    )
    def test_invalid_arguments_rejected(self, grid16, kind, kw, match):
        with pytest.raises(ValueError, match=match):
            make_initial(kind, grid16, **kw)

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
        assert hermitian_defect(state.u) <= 1e-12
        assert hermitian_defect(state.b) <= 1e-12


class TestStep:
    def test_zero_state_stays_zero(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=1e-2, t_end=1e-2,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=0.0),
        )
        state = make_initial_from_config(cfg)
        (out,) = stepped_states(state, cfg)
        assert np.all(out.u.coeffs == 0.0) and np.all(out.b.coeffs == 0.0)
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
        _, _, x3 = grid.mesh()
        u = inverse_transform(final.u)
        exact = np.exp(-1.0) * np.sin(x3) + np.zeros_like(u.values[0])
        assert np.max(np.abs(u.values[0] - exact)) <= 1e-8

    def test_anisotropic_viscosity_decay(self):
        # a vertical mode decays at the vertical rate only
        grid = GridSpec(n_modes=16)
        cfg = SolverConfig(
            grid=grid, dt=1e-3, t_end=0.5, nu_h=5.0, nu_v=2.0,
            initial_condition=InitialCondition(kind="single_mode", mode=(0, 0, 1)),
        )
        final, _ = run(cfg)
        _, _, x3 = grid.mesh()
        u = inverse_transform(final.u)
        exact = np.exp(-2.0 * 0.5) * np.sin(x3) + np.zeros_like(u.values[0])
        assert np.max(np.abs(u.values[0] - exact)) <= 1e-10

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
                np.sum(np.abs(s1.u.coeffs - s2.u.coeffs) ** 2)
                + np.sum(np.abs(s1.b.coeffs - s2.b.coeffs) ** 2)
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
        assert np.all(state.u.coeffs[:, ~grid16.keep_mask] == 0.0)
        assert np.all(state.b.coeffs[:, ~grid16.keep_mask] == 0.0)
        again = friedrichs_truncate(state.u)
        assert np.array_equal(again.coeffs, state.u.coeffs)

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
            assert hermitian_defect(state.u) <= 1e-12

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
    def test_bit_exact_round_trip(self, grid16, tmp_path):
        state = make_initial("random_divfree", grid16, seed=9, target_h1=1.0)
        state.t = 0.625
        path = tmp_path / "state.mhdf"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.t == state.t
        assert loaded.grid.n_modes == 16
        assert loaded.grid.truncation_radius == grid16.truncation_radius
        assert np.array_equal(
            loaded.u.coeffs.view(np.float64), state.u.coeffs.view(np.float64)
        )
        assert np.array_equal(
            loaded.b.coeffs.view(np.float64), state.b.coeffs.view(np.float64)
        )

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
        assert np.array_equal(final_resumed.u.coeffs, final_full.u.coeffs)
        assert np.array_equal(final_resumed.b.coeffs, final_full.b.coeffs)

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

    def test_half_size_v2_and_v1_reader(self, grid16, tmp_path):
        state = make_initial("random_divfree", grid16, seed=4, target_h1=1.0)
        state.t = 0.25
        v2, v1 = tmp_path / "v2.mhdf", tmp_path / "v1.mhdf"
        save_checkpoint(v2, state)
        write_v1_checkpoint(v1, state)
        assert v2.stat().st_size - 32 == 6 * 16 * 16 * 9 * 16
        assert v1.stat().st_size - 32 == 6 * 16**3 * 16
        # one (6, N, N, N/2+1) array u1 u2 u3 b1 b2 b3; u and b are views of it
        assert state.coeffs.shape == (6,) + grid16.spectral_shape
        assert np.shares_memory(state.coeffs, state.u.coeffs)
        assert np.shares_memory(state.coeffs, state.b.coeffs)
        assert v2.read_bytes()[32:] == state.coeffs.tobytes()
        loaded = load_checkpoint(v1)
        assert loaded.t == state.t
        assert np.array_equal(loaded.u.coeffs, state.u.coeffs)
        assert np.array_equal(loaded.b.coeffs, state.b.coeffs)

    @pytest.mark.parametrize("version", [1, 2])
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
        from mhddamp.cli import ExperimentConfig, main, save_config

        state = make_initial("random_divfree", grid8, seed=2, target_h1=1.0)
        if case == "nan_time":
            state.t = float("nan")
        elif case == "nan_coefficient":
            state.u.coeffs[0, 1, 0, 1] = np.nan
        elif case == "mode_outside_ball":
            state.b.coeffs[0, 0, 0, 3] = 1e-3  # |k| = 3 > R = 8/3
        elif case == "divergent":
            state.u.coeffs[0, 1, 0, 1] += 0.1  # k = (1, 0, 1), not orthogonal to e1
        else:
            state.u.coeffs[2, 1, 1, 0] += 0.1  # k3 = 0 plane, mirror (-1, -1, 0) unchanged
        path = tmp_path / "state.mhdf"
        (save_checkpoint if version == 2 else write_v1_checkpoint)(path, state)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

        cfg = ExperimentConfig(
            name="restart",
            solver=SolverConfig(
                grid=grid8, dt=1e-2, t_end=0.02,
                initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)),
            ),
        )
        save_config(cfg, tmp_path / "cfg.json")
        argv = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err and match in err

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mhdf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)
