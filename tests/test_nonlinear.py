"""Convection, damping nonlinearities and the MHD tendency."""

import math
from unittest import mock

import numpy as np
import pytest

from mhddamp import (
    DampingSpec, GridSpec, MhdState, energy, ledger_row, make_initial, nonlinear, sobolev_norm,
)
from mhddamp.damping import damping_term
from mhddamp.energy import spectral_sums
from mhddamp.nonlinear import Workspace, _rhs_core
from mhddamp.operators import leray_project_coeffs, truncate_coeffs, viscous_symbol

from _helpers import (
    coeffs_of,
    convection,
    convolution_oracle_vgradw,
    inner_l2,
    mesh,
    pair_state,
    random_divfree,
    rhs_mhd,
    slab_planes,
    values_of,
)

LOG_E_PLUS_1 = 1.3132616875182228  # log(e + 1)


class TestConvection:
    def test_zero_advecting_field(self, grid8):
        v = np.zeros((3,) + grid8.index.shape, dtype=np.complex128)
        w = random_divfree(grid8, seed=1, l2_norm=1.0)
        out = convection(v, w, grid8)
        assert np.all(out == 0.0)

    def test_constant_velocity_translates(self, grid8):
        # e1 . grad sin(x1) e2 = cos(x1) e2
        v = np.zeros((3,) + grid8.index.shape, dtype=np.complex128)
        v[0, 0] = 1.0
        x1, _, _ = mesh(grid8)
        vals = np.zeros((3, 8, 8, 8))
        vals[1] = np.sin(x1) + 0.0 * x1
        w = truncate_coeffs(coeffs_of(vals), grid8)
        out = convection(v, w, grid8)
        phys = values_of(out, grid8)
        expected = np.cos(x1) + np.zeros_like(phys[1])
        assert np.max(np.abs(phys[1] - expected)) <= 1e-13
        assert np.max(np.abs(phys[[0, 2]])) <= 1e-13
        oracle = convolution_oracle_vgradw(v, w, grid8)
        assert np.max(np.abs(out - oracle)) <= 1e-13

    def test_matches_convolution_oracle(self, grid8):
        v = random_divfree(grid8, seed=2, l2_norm=1.5)
        w = random_divfree(grid8, seed=3, l2_norm=1.0)
        out = convection(v, w, grid8)
        oracle = convolution_oracle_vgradw(v, w, grid8)
        assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_skew_symmetry(self, grid8):
        # <v.grad w, w> = 0 for divergence-free v
        v = random_divfree(grid8, seed=4, l2_norm=2.0)
        w = random_divfree(grid8, seed=5, l2_norm=1.0)
        out = convection(v, w, grid8)
        scale = sobolev_norm(w, grid8, 1.0) ** 2
        assert abs(inner_l2(out, w, grid8)) <= 1e-10 * scale

    def test_coupling_cancellation(self, grid16):
        # <b.grad b, u> + <b.grad u, b> = 0 for divergence-free b
        u = random_divfree(grid16, seed=6, l2_norm=1.0)
        b = random_divfree(grid16, seed=7, l2_norm=1.3)
        total = inner_l2(convection(b, b, grid16), u, grid16) + inner_l2(
            convection(b, u, grid16), b, grid16
        )
        assert abs(total) <= 1e-10 * sobolev_norm(b, grid16, 1.0) ** 2


class TestDampingTerms:
    def test_power_zero_velocity(self):
        out = damping_term(np.zeros((3, 4, 4, 4)), DampingSpec("power", alpha=1.0, beta=3.0))
        assert np.all(out == 0.0)

    def test_power_cubic_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 2.0
        out = damping_term(u, DampingSpec("power", alpha=1.0, beta=3.0))
        assert out[0, 0, 0, 0] == pytest.approx(8.0)

    def test_power_beta5_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 1.0
        u[1] = 1.0
        out = damping_term(u, DampingSpec("power", alpha=0.5, beta=5.0))
        # 0.5 * (sqrt 2)^4 * (1, 1, 0) = (2, 2, 0)
        assert out[0, 0, 0, 0] == pytest.approx(2.0)
        assert out[1, 0, 0, 0] == pytest.approx(2.0)
        assert out[2, 0, 0, 0] == 0.0

    def test_power_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            damping_term(np.zeros((3, 2, 2, 2)), DampingSpec("power", alpha=1.0, beta=1.0))

    def test_generalized_zero_velocity(self):
        out = damping_term(
            np.zeros((3, 4, 4, 4)), DampingSpec("generalized", alpha=1.0, f_id="log1")
        )
        assert np.all(out == 0.0)

    def test_generalized_log1_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 1.0
        out = damping_term(u, DampingSpec("generalized", alpha=1.0, f_id="log1"))
        assert out[0, 0, 0, 0] == pytest.approx(LOG_E_PLUS_1, rel=1e-14)

    def test_pointwise_monotonicity(self):
        # <F(x) - F(y), x - y> >= 0 at every grid point
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 6, 6)) * 2.0
        y = rng.standard_normal((3, 6, 6, 6)) * 2.0
        spec = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
        gap = np.sum((damping_term(x, spec) - damping_term(y, spec)) * (x - y), axis=0)
        assert gap.min() >= -1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DampingSpec(kind="power", alpha=1.0, beta=0.5)
        with pytest.raises(ValueError):
            DampingSpec(kind="generalized", alpha=1.0, f_id="nope")
        with pytest.raises(ValueError):
            DampingSpec(kind="power", alpha=0.0, beta=4.0)
        with pytest.raises(ValueError):
            DampingSpec(kind="bogus")
        with pytest.raises(ValueError, match="finite"):
            DampingSpec(kind="power", alpha=float("nan"), beta=4.0)
        with pytest.raises(ValueError, match="finite"):
            DampingSpec(kind="power", alpha=1.0, beta=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            DampingSpec(kind="generalized", alpha=float("nan"), f_id="log1")


class TestRhs:
    def test_zero_state(self, grid16):
        state = MhdState.zeros(grid16)
        du, db = rhs_mhd(state, grid16)
        assert np.all(du == 0.0) and np.all(db == 0.0)

    def test_single_mode_reduces_to_viscous_decay(self, grid16):
        state = make_initial("single_mode", grid16, mode=(0, 0, 1), amplitude=1.0)
        du, db = rhs_mhd(state, grid16, nu_h=1.0, nu_v=3.0)
        expected = -3.0 * state.u
        assert np.max(np.abs(du - expected)) <= 1e-12
        assert np.max(np.abs(db)) <= 1e-14

    def test_matches_convective_form(self, grid16):
        # rotational/curl evaluation == convective evaluation on the ball
        u = random_divfree(grid16, seed=10, h1_norm=2.0)
        b = random_divfree(grid16, seed=11, h1_norm=1.5)
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        du, db = rhs_mhd(pair_state(grid16, u, b), grid16, 1.0, 1.0, damping)

        uu = convection(u, u, grid16)
        bb = convection(b, b, grid16)
        ub = convection(u, b, grid16)
        bu = convection(b, u, grid16)
        up = values_of(u, grid16)
        dmp = truncate_coeffs(coeffs_of(damping_term(up, damping)), grid16)
        sym = viscous_symbol(grid16, 1.0, 1.0)
        du_ref = leray_project_coeffs(bb - uu - dmp, grid16) - sym * u
        db_ref = bu - ub - sym * b
        scale = np.max(np.abs(du_ref))
        assert np.max(np.abs(du - du_ref)) <= 1e-12 * scale
        assert np.max(np.abs(db - db_ref)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "damping",
        [
            DampingSpec(),
            DampingSpec(kind="power", alpha=1.0, beta=4.0),
            DampingSpec(kind="generalized", alpha=0.7, f_id="log2"),
        ],
        ids=["none", "power", "generalized"],
    )
    def test_energy_flux_cancellation(self, grid16, damping):
        # <rhs_u, u> + <rhs_b, b> + nu ||grad u||^2 + nu ||grad b||^2
        #   + <damping(u), u> = 0
        u = random_divfree(grid16, seed=12, h1_norm=2.0)
        b = random_divfree(grid16, seed=13, h1_norm=1.5)
        du, db = rhs_mhd(pair_state(grid16, u, b), grid16, 1.0, 1.0, damping)
        gu = spectral_sums(u, grid16)[1]
        gb = spectral_sums(b, grid16)[1]
        damp_flux = 0.0
        if damping.kind != "none":
            up = values_of(u, grid16)
            damp_flux = float(np.sum(damping_term(up, damping) * up)) * grid16.cell_volume
        total = inner_l2(du, u, grid16) + inner_l2(db, b, grid16) + gu + gb + damp_flux
        assert abs(total) <= 1e-9 * max(gu, gb, 1.0)

    def test_damping_quadrature_identity(self, grid16):
        # <D(u), u> = alpha ||u||^(beta+1)_L^(beta+1), and the
        # generalized flux = alpha || f(|u|^2) |u|^4 ||_L1, against the
        # ledger's closed-form columns
        u = random_divfree(grid16, seed=14, l2_norm=2.0)
        state = pair_state(grid16, u)
        up = values_of(u, grid16)
        spec = DampingSpec(kind="power", alpha=0.8, beta=4.0)
        flux = float(np.sum(damping_term(up, spec) * up)) * grid16.cell_volume
        norm_term = spec.alpha * ledger_row(state, spec)["lbeta"]
        assert flux == pytest.approx(norm_term, rel=1e-10)

        spec_f = DampingSpec(kind="generalized", alpha=1.2, f_id="log1")
        flux_f = float(np.sum(damping_term(up, spec_f) * up)) * grid16.cell_volume
        norm_f = spec_f.alpha * ledger_row(state, spec_f)["d_f4"]
        assert flux_f == pytest.approx(norm_f, rel=1e-10)

    @pytest.mark.parametrize("planes", (1, 3, 5))
    @pytest.mark.parametrize(
        "damping",
        [DampingSpec(), DampingSpec(kind="power", alpha=1.0, beta=5.0),
         DampingSpec(kind="generalized", alpha=1.0, f_id="log1")],
        ids=["none", "power5", "log1"],
    )
    def test_slabs_give_the_one_slab_tendency(self, grid16, damping, planes):
        # every z line lies in one x-plane, so only the dissipation's
        # per-slab partial sums can round differently
        w = make_initial("random_divfree", grid16, seed=9, target_h1=10.0).coeffs
        before = w.copy()
        want, want_diss = _rhs_core(w, grid16, damping, True, Workspace(grid16))
        with slab_planes(16, planes):
            work = Workspace(grid16)
            assert work.width <= planes and work.columns is not None
            for _ in range(2):  # the workspace is left ready for the next call
                got, diss = _rhs_core(w, grid16, damping, True, work)
                assert np.array_equal(got, want)
                assert abs(diss - want_diss) <= 1e-14 * abs(want_diss)
                assert not np.any(work.staging[..., grid16.kc + 1 :])
        assert np.array_equal(w, before)

    def test_slab_sums_do_not_depend_on_the_python_version(self):
        # The slab partials add from 0.0 in slab order.  math.fsum stands in
        # for the builtin sum, which is compensated from Python 3.12 on: had
        # the right-hand side reduced with sum(), the shadow would move this
        # case (N = 32, four slabs; seed 2, log1) from 1.8389296061047153 to
        # 1.8389296061047156.  The ledger row's columns add the same way;
        # with sum() its d_f4 and d_fprime would move.
        grid = GridSpec(n_modes=32)
        state = make_initial("random_divfree", grid, seed=2, target_h1=10.0)
        spec = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
        work = Workspace(grid)
        want = _rhs_core(state.coeffs, grid, spec, True, work)[1], ledger_row(state, spec, work)
        with (mock.patch.object(nonlinear, "sum", math.fsum, create=True),
              mock.patch.object(energy, "sum", math.fsum, create=True)):
            got = _rhs_core(state.coeffs, grid, spec, True, work)[1], ledger_row(state, spec, work)
        assert got == want

    def test_rejects_non_finite_state(self, grid8):
        state = MhdState.zeros(grid8)
        state.u[0, 1] = np.nan
        with pytest.raises(ValueError):
            rhs_mhd(state, grid8)

    def test_dealiased_product_exact_for_ball_inputs(self, grid8):
        # quadratic products of ball-limited fields carry no aliasing error
        v = random_divfree(grid8, seed=15, l2_norm=1.0)
        w = random_divfree(grid8, seed=16, l2_norm=1.0)
        out = convection(v, w, grid8)
        oracle = convolution_oracle_vgradw(v, w, grid8)
        assert np.max(np.abs(out - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-30)
