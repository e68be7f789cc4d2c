"""Twin-run separation growth and the damping contraction property."""

import contextlib

import numpy as np
import pytest

from mhddamp import (
    BlowUpError,
    DampingSpec,
    InitialCondition,
    SolverConfig,
    run,
    twin_run,
)
from mhddamp import uniqueness
from mhddamp.integrator import trajectory

from _helpers import damping_contraction_check, damping_contraction_pointwise, slab_planes


def twin_config(grid, damping=DampingSpec(), target=0.5, t_end=0.5, seed=4):
    return SolverConfig(
        grid=grid, dt=2e-3, t_end=t_end, ledger_stride=25, seed=seed,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=target),
        damping=damping,
    )


class TestTwinRun:
    def test_zero_perturbation_bitwise_identical(self, grid16):
        cfg = twin_config(grid16, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"))
        result = twin_run(cfg, 0.0)
        assert result.identical and result.reproducible
        assert np.all(result.d == 0.0)
        assert result.bound_satisfied()

    def test_bound_holds_on_fit_window(self, grid16):
        cfg = twin_config(grid16, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"))
        result = twin_run(cfg, 1e-6)
        assert result.d0 > 0
        assert np.isfinite(result.c_hat)
        assert result.bound_satisfied()

    @pytest.mark.parametrize("planes", [None, 3], ids=["one-slab", "slabs-of-3"])
    def test_separation_equals_separate_steppers(self, grid16, monkeypatch, planes):
        # the three trajectories share one stepper; A and B stepped each on
        # its own give the same separations, bit for bit
        cfg = twin_config(grid16, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
                          t_end=0.1)
        starts = []

        def record(state, config, want_diag, work):
            starts.append(state)
            return trajectory(state, config, want_diag, work)

        monkeypatch.setattr(uniqueness, "trajectory", record)
        with slab_planes(16, planes) if planes else contextlib.nullcontext():
            result = twin_run(cfg, 1e-6)
            a, replay, b = starts
            want = [uniqueness._separation(w_a, w_b, grid16)
                    for (_, w_a, _), (_, w_b, _) in zip(trajectory(a, cfg, False),
                                                        trajectory(b, cfg, False))]
        assert replay is a and result.reproducible and not result.identical
        assert result.d.size == 3
        assert np.array_equal(result.d, want)

    @pytest.mark.parametrize("k", [1, 100, 500, 1000])
    def test_fit_rates_scale_exactly_with_time(self, k):
        # times scaled by 2**-k give both rates scaled by 2**k, bit for bit,
        # also where the squares of the elapsed times would be subnormal
        rng = np.random.default_rng(k)
        for _ in range(10):
            t = 0.25 + np.cumsum(rng.uniform(2e-3, 1e-2, 12))
            d = np.exp(np.cumsum(rng.normal(0.1, 0.05, 12)))
            slope, bound = uniqueness._fit_rates(t, d, t.size - 1)
            scaled = uniqueness._fit_rates(np.ldexp(t, -k), d, t.size - 1)
            assert scaled == (np.ldexp(slope, k), np.ldexp(bound, k))

    def test_rate_stable_under_smaller_perturbation(self, grid16):
        cfg = twin_config(grid16, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"))
        r1 = twin_run(cfg, 1e-6)
        r2 = twin_run(cfg, 1e-7)
        assert abs(r1.c_hat - r2.c_hat) <= 0.1 * abs(r1.c_hat)

    def test_quadratic_scaling_in_eps(self, grid16):
        cfg = twin_config(grid16, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"))
        r1 = twin_run(cfg, 1e-6)
        r2 = twin_run(cfg, 1e-7)
        ratio = r1.d[1:] / r2.d[1:]
        assert np.all(np.abs(ratio / 100.0 - 1.0) <= 0.05)

    def test_rate_decreases_with_initial_norm(self, grid16):
        # the growth rate tracks the shared initial data size
        rates = []
        for target in (3.0, 1.0, 0.3):
            cfg = twin_config(grid16, target=target)
            rates.append(twin_run(cfg, 1e-6).c_hat)
        assert rates[0] > rates[1] > rates[2]

    def test_blow_up_truncates_series(self, grid16):
        cfg = SolverConfig(
            grid=grid16, dt=0.1, t_end=2.0, ledger_stride=1, seed=1,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=1e3),
        )
        with pytest.raises(BlowUpError) as info:
            run(cfg)
        for eps in (0.0, 1e-6):
            result = twin_run(cfg, eps)
            assert result.blown_up
            assert not result.identical
            assert result.t[-1] < info.value.time
            assert np.all(np.isfinite(result.d))

    def test_rejects_negative_eps(self, grid16):
        with pytest.raises(ValueError):
            twin_run(twin_config(grid16), -1.0)

    def test_csv_and_summary_outputs(self, grid16, tmp_path):
        cfg = twin_config(grid16, t_end=0.1)
        result = twin_run(cfg, 1e-6)
        csv_path = tmp_path / "twin.csv"
        result.to_csv(csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "t,d,bound"
        assert len(lines) == result.t.size + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == result.d0
        summary = result.summary()
        assert sorted(summary) == ["blown_up", "c_bound", "c_hat", "config_hash", "d0", "eps",
                                   "identical", "window_end_index"]
        assert summary["config_hash"] == result.config_hash
        assert summary["d0"] == result.d0


class TestDampingContraction:
    def test_identical_fields_give_zero(self, grid16):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 16, 16, 16))
        u = vals.copy()
        s = vals.copy()
        spec = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
        assert damping_contraction_check(u, s, spec, grid16) == 0.0

    def test_zero_reference_field(self, grid16):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, 16, 16, 16))
        s = np.zeros((3, 16, 16, 16))
        spec = DampingSpec(kind="generalized", alpha=2.0, f_id="log1")
        value = damping_contraction_check(u, s, spec, grid16)
        # alpha int f(|u|^2) |u|^4 >= 0
        q = np.sum(u**2, axis=0)
        expected = 2.0 * float(np.sum(np.log(np.e + q) * q * q)) * grid16.cell_volume
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
            DampingSpec(kind="power", alpha=0.5, beta=4.0),
        ],
        ids=["generalized", "power"],
    )
    def test_random_pairs_nonnegative(self, grid16, spec):
        rng = np.random.default_rng(7)
        volume = grid16.volume
        for trial in range(25):
            scale = 10.0 ** rng.uniform(-2, 1)
            u = rng.standard_normal((3, 16, 16, 16)) * scale
            s = rng.standard_normal((3, 16, 16, 16)) * scale
            assert damping_contraction_check(u, s, spec, grid16) >= -1e-10 * volume

    def test_pointwise_integrand_nonnegative(self, grid16):
        # strong form: the integrand has a sign at every collocation point
        rng = np.random.default_rng(9)
        spec = DampingSpec(kind="generalized", alpha=1.0, f_id="log2")
        for _ in range(10):
            u = rng.standard_normal((3, 16, 16, 16)) * 2.0
            s = rng.standard_normal((3, 16, 16, 16)) * 2.0
            gap = damping_contraction_pointwise(u, s, spec)
            assert gap.min() >= -1e-12

    def test_grid_mismatch_rejected(self, grid8, grid16):
        u = np.zeros((3,) + grid16.shape)
        s = np.zeros((3,) + grid8.shape)
        with pytest.raises(ValueError):
            damping_contraction_check(u, s, DampingSpec(kind="power", alpha=1.0, beta=4.0), grid16)
