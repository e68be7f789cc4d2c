"""Energy ledger columns, inequality checks and the damping identity."""

import csv

import numpy as np
import pytest

from mhddamp import (
    DampingSpec,
    GridSpec,
    InitialCondition,
    MhdState,
    SolverConfig,
    gronwall_rate,
    check_damping_identity,
    check_H1_inequalities,
    check_L2_inequality,
    ledger_row,
    make_initial,
    run,
    save_checkpoint,
    twin_run,
)
from mhddamp.energy import ALL_COLUMNS

from _helpers import (
    embed_coeffs,
    full_spectrum,
    half_spectrum,
    half_tables,
    ledger_row_oracle,
    pair_state,
    random_divfree,
    slab_planes,
    values_of,
)

E5_MINUS_E = 145.69487727411754  # exp(5) - e
FOUR_PI_CUBED = 4.0 * np.pi**3    # integral of sin^2 over the box


def small_run(grid, damping, seed=11, t_end=1.0, dt=2e-3, target=0.01, stride=25):
    cfg = SolverConfig(
        grid=grid, dt=dt, t_end=t_end, ledger_stride=stride, seed=seed,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=target),
        damping=damping,
    )
    return run(cfg)


class TestLedgerRow:
    def test_zero_state(self, grid16):
        state = MhdState.zeros(grid16)
        row = ledger_row(state, DampingSpec(kind="power", alpha=1.0, beta=4.0))
        assert all(v == 0.0 for v in row.values())

    def test_single_mode_norms(self, grid16):
        state = make_initial("single_mode", grid16, mode=(0, 0, 1), amplitude=1.0)
        row = ledger_row(state, DampingSpec())
        assert row["l2_sq"] == pytest.approx(FOUR_PI_CUBED, rel=1e-12)
        assert row["h1dot_sq"] == pytest.approx(FOUR_PI_CUBED, rel=1e-12)
        assert row["h2dot_sq"] == pytest.approx(FOUR_PI_CUBED, rel=1e-12)

    def test_beta3_weight_reduces_to_gradient_norm(self, grid16):
        # |u|^0 = 1, so d_beta_sq is the squared L2 norm of grad |u|^2
        u = random_divfree(grid16, seed=2, h1_norm=1.5)
        state = pair_state(grid16, u)
        row = ledger_row(state, DampingSpec(kind="power", alpha=1.0, beta=3.0))
        up = values_of(u, grid16)
        q = np.sum(up**2, axis=0)
        half = half_tables(grid16)
        q_hat = half_spectrum(np.fft.fftn(q) / 16**3) * half.keep_mask
        gq = np.stack([1j * half.kx * q_hat, 1j * half.ky * q_hat, 1j * half.kz * q_hat])
        gq_phys = np.fft.ifftn(full_spectrum(gq), axes=(1, 2, 3)).real * 16**3
        ref = np.sum(gq_phys**2) * grid16.cell_volume
        assert row["d_beta_sq"] == pytest.approx(ref, rel=1e-12)

    def test_dual_computation_of_norm_columns(self, grid16):
        # spectral Parseval sums against physical quadrature
        u = random_divfree(grid16, seed=3, h1_norm=2.0)
        b = random_divfree(grid16, seed=4, h1_norm=1.0)
        state = pair_state(grid16, u, b)
        row = ledger_row(state, DampingSpec())
        w = grid16.cell_volume
        up = values_of(u, grid16)
        bp = values_of(b, grid16)
        l2_phys = (np.sum(up**2) + np.sum(bp**2)) * w
        assert row["l2_sq"] == pytest.approx(l2_phys, rel=1e-10)

        def grad_phys(c):
            g = np.stack(
                [1j * grid16.kx * c, 1j * grid16.ky * c, 1j * grid16.kz * c]
            ).reshape((9,) + grid16.index.shape)
            return values_of(g, grid16)

        h1_phys = (np.sum(grad_phys(u) ** 2) + np.sum(grad_phys(b) ** 2)) * w
        assert row["h1dot_sq"] == pytest.approx(h1_phys, rel=1e-10)

    def test_generalized_columns_positive(self, grid16):
        u = random_divfree(grid16, seed=5, h1_norm=2.0)
        state = pair_state(grid16, u)
        row = ledger_row(state, DampingSpec(kind="generalized", alpha=1.0, f_id="log1"))
        for name in ("d_f4", "d_fprime", "d_fprime_lit", "d_f_gradsq", "d_f_grad"):
            assert row[name] > 0.0


ORACLE_DAMPINGS = {
    "none": DampingSpec(),
    "power3": DampingSpec(kind="power", alpha=1.0, beta=3.0),
    "power5": DampingSpec(kind="power", alpha=1.0, beta=5.0),
    "log1": DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
    "log2": DampingSpec(kind="generalized", alpha=1.0, f_id="log2"),
}


def assert_rows_match(row, want, rtol=1e-13):
    assert row.keys() == want.keys()
    for name, value in want.items():
        assert abs(row[name] - value) <= rtol * abs(value), name


class TestLedgerOracle:
    """ledger_row, whose physical-space passes run in slabs of x-planes,
    against one 12-grid batch transformed at full size."""

    @pytest.mark.parametrize("damping", sorted(ORACLE_DAMPINGS))
    @pytest.mark.parametrize("n", (16, 32))
    def test_columns_match_full_batch(self, n, damping, request):
        grid = request.getfixturevalue(f"grid{n}")
        state = make_initial("random_divfree", grid, seed=n, target_h1=10.0)
        spec = ORACLE_DAMPINGS[damping]
        assert_rows_match(ledger_row(state, spec), ledger_row_oracle(state, spec))

    @pytest.mark.parametrize("planes", (1, 3, 5))
    @pytest.mark.parametrize("damping", ("power5", "log1"))
    def test_columns_match_in_narrow_slabs(self, grid16, damping, planes):
        state = make_initial("random_divfree", grid16, seed=2, target_h1=10.0)
        spec = ORACLE_DAMPINGS[damping]
        with slab_planes(16, planes):
            row = ledger_row(state, spec)
        assert_rows_match(row, ledger_row_oracle(state, spec))


class TestLedgerContainer:
    def test_csv_round_trip(self, grid16, tmp_path):
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        _, ledger = small_run(grid16, damping, t_end=0.05, dt=1e-2, target=1.0, stride=2)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        for name in ALL_COLUMNS:
            loaded = np.array([float(record[name]) for record in records])
            assert np.array_equal(loaded, ledger.column(name))

    def test_entries_nonnegative_and_integrals_monotone(self, grid16):
        damping = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
        _, ledger = small_run(grid16, damping, t_end=0.2, dt=2e-3, target=1.0, stride=10)
        ledger.validate()

    def test_stride_refinement_is_second_order(self, grid16):
        # trapezoidal running integrals tighten at O(stride^2)
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        cfg = SolverConfig(
            grid=grid16, dt=2e-3, t_end=0.25, ledger_stride=1,
            initial_condition=InitialCondition(kind="taylor_green_like", amplitude=1.0),
            damping=damping,
        )
        _, ledger = run(cfg)
        t = ledger.times
        col = ledger.column("d_beta_grad")
        reference = float(np.trapezoid(col, t))
        errors = []
        strides = (16, 8, 4)
        for s in strides:
            ts, ys = t[::s], col[::s]
            if ts[-1] != t[-1]:
                ts = np.append(ts, t[-1])
                ys = np.append(ys, col[-1])
            errors.append(abs(float(np.trapezoid(ys, ts)) - reference))
        slope = np.polyfit(np.log(strides), np.log(errors), 1)[0]
        assert slope >= 1.9


class TestL2Check:
    def test_zero_data_residual_zero(self, grid16):
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        _, ledger = small_run(grid16, damping, t_end=0.02, dt=1e-2, target=0.0, stride=1)
        rep = check_L2_inequality(ledger)
        assert rep.status == "PASS"
        assert np.all(rep.margins == 0.0)

    def test_single_decaying_mode_residual(self, grid16):
        # alpha = 0, b = 0: residual is time-quadrature error only
        cfg = SolverConfig(
            grid=grid16, dt=1e-3, t_end=1.0, ledger_stride=100,
            initial_condition=InitialCondition(kind="single_mode", mode=(0, 0, 1)),
        )
        _, ledger = run(cfg)
        rep = check_L2_inequality(ledger)
        assert rep.status == "PASS"
        assert np.max(np.abs(rep.margins)) <= 1e-8

    def test_damped_run_residual_sign(self, grid16):
        for damping in (
            DampingSpec(kind="power", alpha=1.0, beta=4.0),
            DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
        ):
            _, ledger = small_run(grid16, damping, t_end=0.5, dt=2e-3, target=1.0)
            rep = check_L2_inequality(ledger)
            assert rep.status == "PASS", rep.summary_line()

    def test_monotone_l2_under_damping(self, grid16):
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        _, ledger = small_run(grid16, damping, t_end=0.5, dt=2e-3, target=1.0, stride=10)
        l2 = ledger.column("l2_sq")
        assert np.all(np.diff(l2) <= 1e-9 * l2[0])


class TestH1Checks:
    def test_power_small_data(self, grid16):
        damping = DampingSpec(kind="power", alpha=1.0, beta=5.0)
        _, ledger = small_run(grid16, damping)
        reports = {r.name: r for r in check_H1_inequalities(ledger)}
        assert reports["h1_additive"].status == "PASS"
        assert reports["h1_exponential"].status == "PASS"
        # exponential right side grows at rate 2 c = 1/4 for alpha=1, beta=5
        t = ledger.times
        lhs0 = ledger.column("h1dot_sq")[0]
        margins = reports["h1_exponential"].margins
        rhs_end = margins[-1] + _h1_lhs_end(ledger)
        assert rhs_end == pytest.approx(lhs0 * np.exp(0.25 * t[-1]), rel=1e-12)

    def test_generalized_small_data(self, grid16):
        damping = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
        _, ledger = small_run(grid16, damping)
        reports = {r.name: r for r in check_H1_inequalities(ledger)}
        assert reports["h1_additive"].status == "NOT-APPLICABLE"
        rep = reports["h1_exponential"]
        assert rep.status == "PASS"
        # the gronwall rate is 0 here, so the bound is flat: ||grad w(t)||^2 stays below
        # its initial value
        assert "gronwall rate = 0" in rep.detail

    def test_beta_at_most_three_not_applicable(self, grid16):
        damping = DampingSpec(kind="power", alpha=0.4, beta=3.0)
        _, ledger = small_run(grid16, damping, t_end=0.05, dt=1e-2, stride=1)
        reports = check_H1_inequalities(ledger)
        assert all(r.status == "NOT-APPLICABLE" for r in reports)

    def test_zero_data_trivial_pass(self, grid16):
        damping = DampingSpec(kind="power", alpha=1.0, beta=5.0)
        _, ledger = small_run(grid16, damping, t_end=0.02, dt=1e-2, target=0.0, stride=1)
        reports = {r.name: r for r in check_H1_inequalities(ledger)}
        assert reports["h1_additive"].status == "PASS"
        assert reports["h1_exponential"].status == "PASS"


@pytest.mark.parametrize("nu", [(0.5, 0.5), (2.0, 2.0), (5.0, 2.0)], ids=str)
def test_energy_checks_need_unit_viscosity(grid16, nu):
    # the estimates are derived for nu_h = nu_v = 1: at (0.5, 0.5) the L2
    # balance of a correct trajectory would read FAIL, and at the others
    # PASS only because its one-sided residual turns positive
    cfg = SolverConfig(
        grid=grid16, dt=2e-3, t_end=100 * 2e-3, ledger_stride=25, seed=3, nu_h=nu[0], nu_v=nu[1],
        initial_condition=InitialCondition(kind="random_divfree", target_h1=1.0),
        damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
    )
    _, ledger = run(cfg)
    assert ledger.viscosity == nu
    for rep in [check_L2_inequality(ledger), *check_H1_inequalities(ledger)]:
        assert rep.status == "NOT-APPLICABLE", rep.name
        assert rep.detail == f"estimates derived for unit viscosity, got nu_h={nu[0]:g} nu_v={nu[1]:g}"


def restart_at(t0, tmp_path):
    """50 steps of power damping, beta = 4, at N = 8 from a checkpoint of
    one state taken at time t0."""
    grid = GridSpec(n_modes=8)
    state = make_initial("random_divfree", grid, seed=4, target_h1=3.0)
    state.t = t0
    path = tmp_path / f"t0={t0}.mhdf"
    save_checkpoint(path, state)
    return SolverConfig(
        grid=grid, dt=2e-3, t_end=t0 + 50 * 2e-3, ledger_stride=5, seed=4,
        initial_condition=InitialCondition(kind="from_checkpoint", path=str(path)),
        damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
    )


def test_restart_bounds_are_measured_from_the_state_time(tmp_path):
    # the same trajectory, restarted at other times, gets the same verdicts,
    # margins and certified twin rate
    want_reports = check_H1_inequalities(run(restart_at(0.0, tmp_path))[1])
    want_rate = twin_run(restart_at(0.0, tmp_path), 1e-6).c_bound
    for t0 in (-0.05, 0.05, 5.0):
        cfg = restart_at(t0, tmp_path)
        for got, want in zip(check_H1_inequalities(run(cfg)[1]), want_reports):
            assert got.status == want.status == "PASS", (t0, got.name)
            assert got.worst_time - t0 == pytest.approx(want.worst_time, abs=1e-12)
            assert np.allclose(got.margins, want.margins, rtol=0.0, atol=want.tolerance), (t0, got.name)
        assert twin_run(cfg, 1e-6).c_bound == pytest.approx(want_rate, rel=1e-9), t0


def _h1_lhs_end(ledger):
    from mhddamp.energy import _h1_lhs

    return _h1_lhs(ledger)[-1]


class TestAAlpha:
    def test_log1_above_range(self):
        assert gronwall_rate(0.1, "log1") == pytest.approx(E5_MINUS_E, rel=1e-14)

    def test_log1_below_range_is_zero(self):
        # 1/(2 alpha) = 0.5 < f(0) = 1: damping dominates everywhere
        assert gronwall_rate(1.0, "log1") == 0.0

    def test_monotone_in_alpha(self):
        alphas = (0.5, 0.2, 0.1, 0.05, 0.01)
        values = [gronwall_rate(a, "log1") for a in alphas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_all_catalog_entries(self):
        for f_id in ("log1", "log2", "log3"):
            assert gronwall_rate(10.0, f_id) == 0.0
            assert gronwall_rate(0.05, f_id) > 0.0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            gronwall_rate(0.0, "log1")


class TestDampingIdentity:
    def test_zero_state(self, grid16):
        state = MhdState.zeros(grid16)
        rep = check_damping_identity(state, DampingSpec(kind="power", alpha=1.0, beta=3.0))
        assert rep.extra["lhs"] == 0.0 and rep.extra["rhs"] == 0.0
        assert rep.status == "PASS"

    def test_beta3_polynomial_exact(self, grid32):
        # cubic damping with modes inside N/6: alias-free, so both sides agree
        u = random_divfree(grid32, seed=5, l2_norm=2.0, band=32 / 6.0, decay=1.0)
        state = pair_state(grid32, u)
        rep = check_damping_identity(state, DampingSpec(kind="power", alpha=1.0, beta=3.0))
        assert rep.status == "PASS"
        assert rep.extra["rel_error"] <= 1e-6

    def test_beta_below_three_not_applicable(self, grid16):
        u = random_divfree(grid16, seed=6, l2_norm=1.0)
        state = pair_state(grid16, u)
        rep = check_damping_identity(state, DampingSpec(kind="power", alpha=1.0, beta=2.0))
        assert rep.status == "NOT-APPLICABLE"

    def test_generalized_refinement(self, grid32):
        # fixed smooth field sampled at N and 2N: the mismatch is the
        # spectral tail of the non-polynomial integrand and must shrink
        big = GridSpec(n_modes=64)
        u32 = random_divfree(grid32, seed=9, l2_norm=2.0, band=8.0, decay=1.0)
        damping = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")

        rels = []
        for grid, coeffs in (
            (grid32, u32),
            (big, embed_coeffs(u32, grid32, big)),
        ):
            state = pair_state(grid, coeffs)
            rep = check_damping_identity(state, damping)
            rels.append(rep.extra["rel_error"])
        assert rels[0] / max(rels[1], 1e-300) >= 4.0

    @pytest.mark.parametrize("planes", (1, 3, 5))
    @pytest.mark.parametrize("damping", ("power5", "log1"))
    def test_narrow_slabs_match_one_slab(self, grid16, damping, planes):
        # lhs transforms the slabs' damping to modes: the same arithmetic
        # as at one slab; rhs is a ledger sum of per-slab partials
        state = make_initial("random_divfree", grid16, seed=2, target_h1=10.0)
        spec = ORACLE_DAMPINGS[damping]
        want = check_damping_identity(state, spec).extra
        with slab_planes(16, planes):
            got = check_damping_identity(state, spec).extra
        assert got["lhs"] == want["lhs"]
        assert abs(got["rhs"] - want["rhs"]) <= 1e-15 * abs(want["rhs"])
