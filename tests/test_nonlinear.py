"""Convection, damping nonlinearities and the MHD tendency."""

import numpy as np
import pytest

from mhddamp import (
    DampingSpec,
    MhdState,
    PhysicalVectorField,
    SpectralVectorField,
    convection,
    damping_generalized,
    damping_power,
    forward_transform,
    ledger_row,
    make_initial,
    rhs_mhd,
)
from mhddamp.damping import damping_term
from mhddamp.fields import fft_grid, ifft_grid
from mhddamp.operators import (
    inner_l2,
    leray_project_coeffs,
    sobolev_norm,
    truncate_coeffs,
    viscous_symbol,
)

from _helpers import convolution_oracle_vgradw, random_divfree

LOG_E_PLUS_1 = 1.3132616875182228  # log(e + 1)


class TestConvection:
    def test_zero_advecting_field(self, grid8):
        v = SpectralVectorField.zeros(grid8)
        w = random_divfree(grid8, seed=1, l2_norm=1.0)
        out = convection(v, w)
        assert np.all(out.coeffs == 0.0)

    def test_constant_velocity_translates(self, grid8):
        # e1 . grad sin(x1) e2 = cos(x1) e2
        c = SpectralVectorField.zeros(grid8).coeffs
        c[0, 0, 0, 0] = 1.0
        v = SpectralVectorField(c, grid8)
        x1, _, _ = grid8.mesh()
        vals = np.zeros((3, 8, 8, 8))
        vals[1] = np.sin(x1) + 0.0 * x1
        w = forward_transform(PhysicalVectorField(vals, grid8))
        out = convection(v, w)
        phys = ifft_grid(out.coeffs, 8)
        expected = np.cos(x1) + np.zeros_like(phys[1])
        assert np.max(np.abs(phys[1] - expected)) <= 1e-13
        assert np.max(np.abs(phys[[0, 2]])) <= 1e-13
        oracle = convolution_oracle_vgradw(v, w)
        assert np.max(np.abs(out.coeffs - oracle)) <= 1e-13

    def test_matches_convolution_oracle(self, grid8):
        v = random_divfree(grid8, seed=2, l2_norm=1.5)
        w = random_divfree(grid8, seed=3, l2_norm=1.0)
        out = convection(v, w)
        oracle = convolution_oracle_vgradw(v, w)
        assert np.max(np.abs(out.coeffs - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_skew_symmetry(self, grid8):
        # <v.grad w, w> = 0 for divergence-free v
        v = random_divfree(grid8, seed=4, l2_norm=2.0)
        w = random_divfree(grid8, seed=5, l2_norm=1.0)
        out = convection(v, w)
        scale = sobolev_norm(w, 1.0) ** 2
        assert abs(inner_l2(out, w)) <= 1e-10 * scale

    def test_coupling_cancellation(self, grid16):
        # <b.grad b, u> + <b.grad u, b> = 0 for divergence-free b
        u = random_divfree(grid16, seed=6, l2_norm=1.0)
        b = random_divfree(grid16, seed=7, l2_norm=1.3)
        total = inner_l2(convection(b, b), u) + inner_l2(convection(b, u), b)
        assert abs(total) <= 1e-10 * sobolev_norm(b, 1.0) ** 2


class TestDampingTerms:
    def test_power_zero_velocity(self):
        out = damping_power(np.zeros((3, 4, 4, 4)), alpha=1.0, beta=3.0)
        assert np.all(out == 0.0)

    def test_power_cubic_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 2.0
        out = damping_power(u, alpha=1.0, beta=3.0)
        assert out[0, 0, 0, 0] == pytest.approx(8.0)

    def test_power_beta5_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 1.0
        u[1] = 1.0
        out = damping_power(u, alpha=0.5, beta=5.0)
        # 0.5 * (sqrt 2)^4 * (1, 1, 0) = (2, 2, 0)
        assert out[0, 0, 0, 0] == pytest.approx(2.0)
        assert out[1, 0, 0, 0] == pytest.approx(2.0)
        assert out[2, 0, 0, 0] == 0.0

    def test_power_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            damping_power(np.zeros((3, 2, 2, 2)), alpha=1.0, beta=1.0)

    def test_generalized_zero_velocity(self):
        out = damping_generalized(np.zeros((3, 4, 4, 4)), alpha=1.0, fn="log1")
        assert np.all(out == 0.0)

    def test_generalized_log1_point_value(self):
        u = np.zeros((3, 1, 1, 1))
        u[0] = 1.0
        out = damping_generalized(u, alpha=1.0, fn="log1")
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
        assert np.all(du.coeffs == 0.0) and np.all(db.coeffs == 0.0)

    def test_single_mode_reduces_to_viscous_decay(self, grid16):
        state = make_initial("single_mode", grid16, mode=(0, 0, 1), amplitude=1.0)
        du, db = rhs_mhd(state, grid16, nu_h=1.0, nu_v=3.0)
        expected = -3.0 * state.u.coeffs
        assert np.max(np.abs(du.coeffs - expected)) <= 1e-12
        assert np.max(np.abs(db.coeffs)) <= 1e-14

    def test_matches_convective_form(self, grid16):
        # rotational/curl evaluation == convective evaluation on the ball
        u = random_divfree(grid16, seed=10, h1_norm=2.0)
        b = random_divfree(grid16, seed=11, h1_norm=1.5)
        damping = DampingSpec(kind="power", alpha=1.0, beta=4.0)
        du, db = rhs_mhd(MhdState.from_fields(u, b), grid16, 1.0, 1.0, damping)

        uu = convection(u, u)
        bb = convection(b, b)
        ub = convection(u, b)
        bu = convection(b, u)
        up = ifft_grid(u.coeffs, 16)
        dmp = truncate_coeffs(fft_grid(damping_term(up, damping)), grid16)
        sym = viscous_symbol(grid16, 1.0, 1.0)
        du_ref = leray_project_coeffs(
            truncate_coeffs(bb.coeffs - uu.coeffs - dmp, grid16), grid16
        ) - sym * u.coeffs
        db_ref = truncate_coeffs(bu.coeffs - ub.coeffs, grid16) - sym * b.coeffs
        scale = np.max(np.abs(du_ref))
        assert np.max(np.abs(du.coeffs - du_ref)) <= 1e-12 * scale
        assert np.max(np.abs(db.coeffs - db_ref)) <= 1e-12 * scale

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
        du, db = rhs_mhd(MhdState.from_fields(u, b), grid16, 1.0, 1.0, damping)
        gu = sobolev_norm(u, 1.0, homogeneous=True) ** 2
        gb = sobolev_norm(b, 1.0, homogeneous=True) ** 2
        up = ifft_grid(u.coeffs, 16)
        dmp = damping_term(up, damping)
        damp_flux = float(np.sum(dmp * up)) * grid16.cell_volume
        total = inner_l2(du, u) + inner_l2(db, b) + gu + gb + damp_flux
        assert abs(total) <= 1e-9 * max(gu, gb, 1.0)

    def test_damping_quadrature_identity(self, grid16):
        # <damping_power(u), u> = alpha ||u||^(beta+1)_L^(beta+1), and the
        # generalized flux = alpha || f(|u|^2) |u|^4 ||_L1, against the
        # ledger's closed-form columns
        u = random_divfree(grid16, seed=14, l2_norm=2.0)
        state = MhdState.from_fields(u, SpectralVectorField.zeros(grid16))
        up = ifft_grid(u.coeffs, 16)
        spec = DampingSpec(kind="power", alpha=0.8, beta=4.0)
        flux = float(np.sum(damping_term(up, spec) * up)) * grid16.cell_volume
        norm_term = spec.alpha * ledger_row(state, spec)["lbeta"]
        assert flux == pytest.approx(norm_term, rel=1e-10)

        spec_f = DampingSpec(kind="generalized", alpha=1.2, f_id="log1")
        flux_f = float(np.sum(damping_term(up, spec_f) * up)) * grid16.cell_volume
        norm_f = spec_f.alpha * ledger_row(state, spec_f)["d_f4"]
        assert flux_f == pytest.approx(norm_f, rel=1e-10)

    def test_rejects_non_finite_state(self, grid8):
        u = SpectralVectorField.zeros(grid8)
        u.coeffs[0, 1, 1, 1] = np.nan
        state = MhdState.from_fields(u, SpectralVectorField.zeros(grid8))
        with pytest.raises(ValueError):
            rhs_mhd(state, grid8)

    def test_dealiased_product_exact_for_ball_inputs(self, grid8):
        # quadratic products of ball-limited fields carry no aliasing error
        v = random_divfree(grid8, seed=15, l2_norm=1.0)
        w = random_divfree(grid8, seed=16, l2_norm=1.0)
        out = convection(v, w)
        oracle = convolution_oracle_vgradw(v, w)
        assert np.max(np.abs(out.coeffs - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-30)
