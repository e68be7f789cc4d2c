"""Scalar/vector lemma verifiers: interpolation bound, monotonicity,
sampled Gronwall lemma and the damping-modifier envelope report."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mhddamp import (
    DampingSpec,
    InitialCondition,
    SolverConfig,
    interpolation_constant,
    check_interpolation_bound,
    modifier_envelope_report,
    run,
)
from mhddamp.lemmas import (
    SHARPNESS_TOL,
    interpolation_minimizer,
    monotonicity_gap,
    monotonicity_suite,
)

from _helpers import gronwall_check

LOG_E_PLUS_1 = 1.3132616875182228


class TestInterpolationConstant:
    def test_spot_values(self):
        assert interpolation_constant(1.0, 5.0) == pytest.approx(0.125, rel=1e-15)
        assert interpolation_constant(2.0, 4.0) == pytest.approx(1.0 / 54.0, rel=1e-15)

    def test_cross_check_by_maximization(self):
        # 2c must equal max_x (x^2 - alpha x^(beta-1)); for alpha=1, beta=5
        # the maximum of x^2 - x^4 is 1/4 at x = 1/sqrt(2)
        res = minimize_scalar(lambda x: -(x**2 - x**4), bounds=(0.0, 2.0), method="bounded")
        assert -res.fun == pytest.approx(0.25, abs=1e-9)
        assert res.x == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
        assert 2.0 * interpolation_constant(1.0, 5.0) == pytest.approx(0.25, rel=1e-15)

    def test_divergence_toward_beta_three(self):
        assert interpolation_constant(0.1, 3.01) > 1e6 * interpolation_constant(0.1, 4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            interpolation_constant(1.0, 3.0)
        with pytest.raises(ValueError):
            interpolation_constant(0.0, 5.0)

    def test_minimizer_value(self):
        assert interpolation_minimizer(1.0, 5.0) == pytest.approx(1.0 / np.sqrt(2.0))


class TestLemma24:
    def test_margin_at_zero_is_2c(self):
        rep = check_interpolation_bound(1.0, 5.0, np.array([0.0]))
        assert rep.status == "PASS"
        # at x = 0 the margin is 2c = 1/4 > 0

    def test_sharpness_at_minimizer(self):
        rep = check_interpolation_bound(1.0, 5.0, np.linspace(0, 10, 1001))
        assert rep.status == "PASS"
        assert abs(rep.extra["margin_at_x_star"]) <= 1e-15

    def test_margin_at_ten(self):
        # 2*(1/8) + 10^4 - 100 = 9900.25
        c = interpolation_constant(1.0, 5.0)
        x = 10.0
        assert 2 * c + 1.0 * x**4 - x**2 == pytest.approx(9900.25)

    def test_matrix(self):
        x = np.linspace(0.0, 100.0, 10_000)
        for alpha in (0.1, 1.0, 10.0):
            for beta in (3.5, 4.0, 5.0, 7.0):
                rep = check_interpolation_bound(alpha, beta, x)
                assert rep.status == "PASS", (alpha, beta, rep.worst_margin)
                assert rep.worst_margin >= -1e-12
                assert abs(rep.extra["margin_at_x_star"]) <= 1e-10

    def test_sharpness_tolerance_is_relative_to_c(self):
        # the roundoff of 2c + alpha x*^(beta-1) - x*^2 grows with c
        rep = check_interpolation_bound(1e-20, 5.0, np.linspace(0, 100, 10000))
        assert rep.status == "PASS"
        margin, c = rep.extra["margin_at_x_star"], rep.extra["c"]
        assert SHARPNESS_TOL < abs(margin) <= SHARPNESS_TOL * c

    def test_beta_three_not_applicable(self):
        rep = check_interpolation_bound(0.4, 3.0, np.linspace(0, 1, 10))
        assert rep.status == "NOT-APPLICABLE"

    def test_report_invariant(self):
        # worst_margin holds the margin at x* relative to max(1, c)
        for alpha, beta in ((1.0, 5.0), (1e-200, 7.0), (1e-20, 5.0)):
            rep = check_interpolation_bound(alpha, beta, np.linspace(0, 100, 1000))
            assert rep.passed == (rep.worst_margin >= -1e-12), (alpha, beta)


class TestMonotonicity:
    def test_equal_arguments(self):
        assert monotonicity_gap([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "log1") == 0.0

    def test_zero_second_argument(self):
        x = np.array([1.0, 0.0, 0.0])
        gap = monotonicity_gap(x, np.zeros(3), "log1")
        assert gap == pytest.approx(LOG_E_PLUS_1, rel=1e-14)  # f(1) |x|^4 with |x| = 1

    def test_antipodal_value(self):
        gap = monotonicity_gap([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], "log1")
        assert gap == pytest.approx(4.0 * LOG_E_PLUS_1, rel=1e-14)

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3) * 10
            assert monotonicity_gap(x, y, "log2") == pytest.approx(
                monotonicity_gap(y, x, "log2"), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("f_id", ["log1", "log2", "log3"])
    def test_sampled_suite(self, f_id):
        rep = monotonicity_suite(f_id, n_pairs=100_000, seed=0)
        assert rep.status == "PASS"
        assert rep.worst_margin >= -1e-12


class TestGronwall:
    def test_zero_rate_reduces_to_plain_bound(self):
        t = np.linspace(0, 1, 101)
        rep = gronwall_check(t, 0.4 * np.ones_like(t), 0.2 * np.ones_like(t), np.zeros_like(t), 1.0)
        assert rep.status == "PASS"

    def test_saturating_exponential(self):
        t = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        rep = gronwall_check(t, np.exp(t), np.zeros_like(t), np.ones_like(t), 1.0)
        assert rep.status == "PASS"
        assert abs(rep.worst_margin) <= 1e-6  # equality case, quadrature error only

    def test_hypothesis_failure_is_not_applicable(self):
        t = np.linspace(0, 1, 11)
        f = 10.0 + t  # grossly violates f <= A + int h f with A = 1, h = 0
        rep = gronwall_check(t, f, np.zeros_like(t), np.zeros_like(t), 1.0)
        assert rep.status == "NOT-APPLICABLE"

    def test_random_admissible_series(self):
        # construct series saturating the hypothesis up to a random slack
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = 201
            t = np.linspace(0.0, 2.0, n)
            dt = t[1] - t[0]
            h = rng.uniform(0.0, 2.0, n)
            g = rng.uniform(0.0, 0.5, n)
            theta = rng.uniform(0.0, 0.95, n)
            bound = 1.0
            f = np.zeros(n)
            int_g = 0.0
            int_hf = 0.0
            f[0] = theta[0] * bound
            for i in range(1, n):
                int_g += 0.5 * (g[i - 1] + g[i]) * dt
                cap = bound + int_hf + 0.5 * dt * h[i - 1] * f[i - 1] - int_g
                cap /= 1.0 - 0.5 * dt * h[i]
                f[i] = theta[i] * max(cap, 0.0)
                int_hf += 0.5 * dt * (h[i - 1] * f[i - 1] + h[i] * f[i])
            rep = gronwall_check(t, f, g, h, bound)
            assert rep.status == "PASS", (trial, rep.worst_margin)
            assert rep.worst_margin >= -1e-9

    def test_on_solver_ledger(self, grid16):
        # rate-2c Gronwall data assembled from a damped small-data trajectory
        damping = DampingSpec(kind="power", alpha=1.0, beta=5.0)
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=1.0, ledger_stride=25, seed=11,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=0.01),
            damping=damping,
        )
        _, ledger = run(cfg)
        c = interpolation_constant(1.0, 5.0)
        f = ledger.column("h1dot_sq")
        g = (
            ledger.column("h2dot_sq")
            + damping.alpha * (5.0 - 1.0) / 2.0 * ledger.column("d_beta_sq")
            + damping.alpha * ledger.column("d_beta_grad")
        )
        h = 2.0 * c * np.ones_like(f)
        rep = gronwall_check(ledger.times, f, g, h, f[0])
        assert rep.status == "PASS"


class TestHypothesisH:
    def test_value_at_one(self):
        rep = modifier_envelope_report("log1", 4.0, np.array([1.0]))
        assert rep.a_star == pytest.approx(LOG_E_PLUS_1, rel=1e-14)

    def test_upper_ratio_at_hundred(self):
        z = np.array([100.0])
        rep = modifier_envelope_report("log1", 4.0, z)
        assert rep.b_star == pytest.approx(np.log(np.e + 100.0) / 1e6, rel=1e-12)

    def test_lower_bound_degenerates(self):
        z = np.logspace(0.0, 6.0, 500)
        rep = modifier_envelope_report("log1", 4.0, z)
        assert rep.lower_bound_degenerate
        assert rep.a_star == pytest.approx(np.log(np.e + 1e6) / 1e12, rel=1e-10)
        assert rep.a_argmin == pytest.approx(1e6)
        # reported, not judged: the modifiers are pinned at f(0) = 1, not 0
        assert rep.f_at_zero == 1.0

    def test_rejects_grid_below_one(self):
        with pytest.raises(ValueError):
            modifier_envelope_report("log1", 4.0, np.array([0.5]))


class TestCatalogCalculus:
    @pytest.mark.parametrize("f_id", ["log1", "log2", "log3"])
    def test_derivative_matches_finite_difference(self, f_id):
        from mhddamp.damping import F_CATALOG

        fn = F_CATALOG[f_id]
        z = np.logspace(-2, 4, 50)
        h = 1e-6 * np.maximum(z, 1.0)
        fd = (fn.f(z + h) - fn.f(z - h)) / (2 * h)
        assert np.allclose(fn.f_prime(z), fd, rtol=1e-6)

    @pytest.mark.parametrize("f_id", ["log1", "log2", "log3"])
    def test_inverse_on_range(self, f_id):
        from mhddamp.damping import F_CATALOG

        fn = F_CATALOG[f_id]
        for z in (0.0, 0.5, 3.0, 1e4):
            y = float(fn.f(np.array(z)))
            assert fn.f_inverse(y) == pytest.approx(z, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("f_id", ["log1", "log2", "log3"])
    def test_strictly_increasing_with_f0_one(self, f_id):
        from mhddamp.damping import F_CATALOG

        fn = F_CATALOG[f_id]
        z = np.logspace(-3, 6, 200)
        assert np.all(np.diff(fn.f(z)) > 0)
        assert fn.f(np.array(0.0)) == pytest.approx(1.0, rel=1e-14)
