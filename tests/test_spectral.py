"""Transforms, truncation, Leray projection, derivatives and norms."""

import numpy as np
import pytest

from mhddamp import (
    GridSpec,
    PhysicalVectorField,
    SpectralVectorField,
    divergence,
    forward_transform,
    friedrichs_truncate,
    gradient,
    inverse_transform,
    laplacian,
    leray_project,
    sobolev_norm,
)
from mhddamp.fields import HermitianSymmetryError, NonFiniteFieldError, hermitian_defect
from mhddamp.operators import divergence_l2, inner_l2, l2_norm_sq

from _helpers import dft_oracle, full_spectrum, half_spectrum, random_divfree


def random_coeffs(seed, n):
    """Random (3, N, N, N/2+1) coefficients, not those of a real field."""
    rng = np.random.default_rng(seed)
    return half_spectrum(rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n)))


class TestGridSpec:
    def test_default_cutoff_matches_dealias_rule(self):
        g = GridSpec(n_modes=24)
        assert g.truncation_radius == pytest.approx(8.0)

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            GridSpec(n_modes=9)
        with pytest.raises(ValueError):
            GridSpec(n_modes=6)

    def test_rejects_cutoff_beyond_nyquist(self):
        with pytest.raises(ValueError):
            GridSpec(n_modes=16, truncation_radius=9.0)

    def test_wavenumber_range(self, grid16):
        k = grid16.k1d
        assert k.min() == -7 and k.max() == 8
        assert set(k) == set(range(-7, 9))

    def test_half_spectrum_layout(self, grid16):
        assert grid16.spectral_shape == (16, 16, 9)
        assert grid16.k_sq.shape == grid16.spectral_shape
        assert grid16.kz.ravel().tolist() == list(range(9))
        assert grid16.parseval_weight.ravel().tolist() == [1.0] + [2.0] * 7 + [1.0]
        assert not grid16.keep_mask[..., -1].any()  # the plane k3 = N/2 is truncated


class TestTransforms:
    def test_constant_field_dc_mode(self, grid8):
        p = PhysicalVectorField(np.ones((3, 8, 8, 8)), grid8)
        s = forward_transform(p)
        assert s.coeffs[0, 0, 0, 0] == pytest.approx(1.0)
        off_dc = s.coeffs.copy()
        off_dc[:, 0, 0, 0] = 0.0
        assert np.max(np.abs(off_dc)) < 1e-14

    def test_sin_coefficients_match_dft_oracle(self, grid8):
        x1, _, _ = grid8.mesh()
        vals = np.zeros((3, 8, 8, 8))
        vals[0] = np.sin(x1) + 0.0 * x1
        s = forward_transform(PhysicalVectorField(vals, grid8))
        # analytic series of sin: -i/2 at k=+1, +i/2 at k=-1
        assert s.coeffs[0, 1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert s.coeffs[0, -1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        oracle = dft_oracle(vals)
        assert np.max(np.abs(s.coeffs - oracle)) < 1e-13

    def test_round_trip_identity(self, grid16):
        rng = np.random.default_rng(0)
        p = PhysicalVectorField(rng.standard_normal((3, 16, 16, 16)), grid16)
        p2 = inverse_transform(forward_transform(p))
        scale = np.max(np.abs(p.values))
        assert np.max(np.abs(p2.values - p.values)) <= 1e-12 * scale

    def test_spectral_round_trip(self, grid16):
        s = random_divfree(grid16, seed=1, l2_norm=1.0)
        s2 = forward_transform(inverse_transform(s))
        assert np.max(np.abs(s2.coeffs - s.coeffs)) <= 1e-12 * np.max(np.abs(s.coeffs))

    def test_zero_coefficients_give_zero_field(self, grid8):
        p = inverse_transform(SpectralVectorField.zeros(grid8))
        assert np.all(p.values == 0.0)

    def test_hermitian_pair_gives_sin(self, grid8):
        c = SpectralVectorField.zeros(grid8).coeffs
        c[0, 1, 0, 0] = -0.5j
        c[0, -1, 0, 0] = 0.5j
        p = inverse_transform(SpectralVectorField(c, grid8))
        x1, _, _ = grid8.mesh()
        expected = np.sin(x1) + np.zeros_like(p.values[0])
        assert np.max(np.abs(p.values[0] - expected)) <= 1e-12
        assert np.max(np.abs(p.values[1:])) == 0.0

    def test_rejects_non_finite_input(self, grid8):
        vals = np.zeros((3, 8, 8, 8))
        vals[1, 2, 3, 4] = np.inf
        with pytest.raises(NonFiniteFieldError):
            forward_transform(PhysicalVectorField(vals, grid8))
        c = SpectralVectorField.zeros(grid8)
        c.coeffs[0, 1, 0, 1] = np.nan
        with pytest.raises(NonFiniteFieldError):
            inverse_transform(c)

    def test_rejects_broken_hermitian_symmetry(self, grid8):
        c = SpectralVectorField.zeros(grid8).coeffs
        c[0, 1, 0, 0] = 1.0  # no conjugate partner
        with pytest.raises(HermitianSymmetryError):
            inverse_transform(SpectralVectorField(c, grid8))

    def test_hermitian_defect_measures_real_fields(self, grid16):
        s = random_divfree(grid16, seed=5, l2_norm=1.0)
        assert hermitian_defect(s) <= 1e-12
        s.coeffs[0, 3, 0, 0] += 0.5
        assert hermitian_defect(s) > 1e-3


class TestFriedrichsTruncate:
    def test_cutoff_beyond_grid_is_identity(self, grid8):
        s = random_divfree(grid8, seed=2, l2_norm=1.0)
        s2 = friedrichs_truncate(s, radius=8.0)
        assert np.array_equal(s.coeffs, s2.coeffs)

    def test_single_mode_outside_cutoff_vanishes(self, grid16):
        c = SpectralVectorField.zeros(grid16).coeffs
        c[0, 5, 0, 0] = 1.0
        c[0, -5, 0, 0] = 1.0
        out = friedrichs_truncate(SpectralVectorField(c, grid16), radius=4.0)
        assert np.all(out.coeffs == 0.0)

    def test_l2_contraction(self, grid16):
        # Parseval: dropping modes cannot increase the L2 norm
        s = SpectralVectorField(random_coeffs(3, 16), grid16)
        for radius in (2.0, 4.0, 6.0):
            assert l2_norm_sq(friedrichs_truncate(s, radius)) <= l2_norm_sq(s) + 1e-12

    def test_idempotent(self, grid16):
        s = random_divfree(grid16, seed=4, l2_norm=1.0)
        once = friedrichs_truncate(s, radius=3.5)
        twice = friedrichs_truncate(once, radius=3.5)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid16):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((16, 16, 16))
        q_hat = half_spectrum(np.fft.fftn(q) / 16**3)
        q_hat[0, 0, 0] = 0.0
        c = np.stack([1j * grid16.kx * q_hat, 1j * grid16.ky * q_hat, 1j * grid16.kz * q_hat])
        out = leray_project(SpectralVectorField(c, grid16))
        assert np.max(np.abs(out.coeffs)) <= 1e-12 * np.max(np.abs(c))

    def test_fixes_divergence_free_fields(self, grid16):
        s = random_divfree(grid16, seed=8, l2_norm=1.0)
        out = leray_project(s)
        assert np.max(np.abs(out.coeffs - s.coeffs)) <= 1e-12 * np.max(np.abs(s.coeffs))

    def test_idempotent(self, grid16):
        once = leray_project(SpectralVectorField(random_coeffs(9, 16), grid16))
        twice = leray_project(once)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-12 * np.max(np.abs(once.coeffs))

    def test_result_divergence_free(self, grid16):
        out = leray_project(SpectralVectorField(random_coeffs(10, 16), grid16))
        assert divergence_l2(out) <= 1e-10 * np.sqrt(l2_norm_sq(out))

    def test_mean_mode_passes_through(self, grid8):
        c = SpectralVectorField.zeros(grid8).coeffs
        c[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        out = leray_project(SpectralVectorField(c, grid8))
        assert np.array_equal(out.coeffs, c)

    def test_self_adjoint(self, grid16):
        a = SpectralVectorField(random_coeffs(11, 16), grid16)
        b = SpectralVectorField(random_coeffs(13, 16), grid16)
        lhs = inner_l2(leray_project(a), b)
        rhs = inner_l2(a, leray_project(b))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_orthogonal_decomposition(self, grid16):
        f = SpectralVectorField(random_coeffs(15, 16), grid16)
        pf = leray_project(f)
        rem = SpectralVectorField(f.coeffs - pf.coeffs, grid16)
        total = l2_norm_sq(f)
        assert abs(total - l2_norm_sq(pf) - l2_norm_sq(rem)) <= 1e-12 * total


class TestDerivatives:
    def test_divergence_of_perpendicular_mode(self, grid8):
        x1, _, _ = grid8.mesh()
        vals = np.zeros((3, 8, 8, 8))
        vals[1] = np.sin(x1) + 0.0 * x1
        s = forward_transform(PhysicalVectorField(vals, grid8))
        assert np.max(np.abs(divergence(s))) <= 1e-14

    def test_laplacian_eigenfunction(self, grid16):
        # finite-difference oracle confirms the expected -sin(x1) field
        n_fd = 128
        h = 2 * np.pi / n_fd
        xf = h * np.arange(n_fd)
        fd = (np.roll(np.sin(xf), -1) - 2 * np.sin(xf) + np.roll(np.sin(xf), 1)) / h**2
        assert np.max(np.abs(fd + np.sin(xf))) < 1e-3

        x1, _, _ = grid16.mesh()
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x1) + 0.0 * x1
        s = forward_transform(PhysicalVectorField(vals, grid16))
        lap = inverse_transform(laplacian(s, nu_h=1.0, nu_v=1.0))
        assert np.max(np.abs(lap.values[0] + vals[0])) <= 1e-12

    def test_anisotropic_coefficients(self, grid16):
        _, _, x3 = grid16.mesh()
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x3) + 0.0 * x3
        s = forward_transform(PhysicalVectorField(vals, grid16))
        lap = inverse_transform(laplacian(s, nu_h=7.0, nu_v=2.0))
        assert np.max(np.abs(lap.values[0] + 2.0 * vals[0])) <= 1e-12

    def test_gradient_of_constant_is_zero(self, grid8):
        p = PhysicalVectorField(np.ones((3, 8, 8, 8)) * 2.5, grid8)
        g = gradient(forward_transform(p))
        assert np.max(np.abs(g)) <= 1e-14

    def test_trig_polynomial_derivative_exact(self, grid16):
        # d/dx1 of sin(2 x1) cos(x2) = 2 cos(2 x1) cos(x2), inside the ball
        x1, x2, _ = grid16.mesh()
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(2 * x1) * np.cos(x2)
        s = forward_transform(PhysicalVectorField(vals, grid16))
        g = gradient(s)
        d1 = inverse_transform(SpectralVectorField(g[:, 0], grid16))
        expected = 2 * np.cos(2 * x1) * np.cos(x2) + np.zeros_like(vals[0])
        assert np.max(np.abs(d1.values[0] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSobolevNorms:
    def test_single_mode_homogeneous_equals_l2(self, grid16):
        x1, _, _ = grid16.mesh()
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x1) + 0.0 * x1
        s = forward_transform(PhysicalVectorField(vals, grid16))
        # |k| = 1 exactly, so the H^1-dot weight is 1; verify by summation
        # over the full spectrum
        k = grid16.k1d
        k_sq = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        direct = np.sqrt(grid16.volume * np.sum(k_sq * np.abs(full_spectrum(s.coeffs)) ** 2))
        assert sobolev_norm(s, 1.0, homogeneous=True) == pytest.approx(direct, rel=1e-14)
        assert sobolev_norm(s, 1.0, homogeneous=True) == pytest.approx(
            sobolev_norm(s, 0.0), rel=1e-12
        )

    def test_zero_field_all_orders(self, grid8):
        z = SpectralVectorField.zeros(grid8)
        for order in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm(z, order, homogeneous=True) == 0.0
            assert sobolev_norm(z, order) == 0.0

    def test_order_zero_homogeneous_matches_l2(self, grid16):
        s = random_divfree(grid16, seed=20, l2_norm=2.0)
        assert sobolev_norm(s, 0.0, homogeneous=True) == pytest.approx(
            sobolev_norm(s, 0.0), rel=1e-12
        )

    def test_negative_order_rejects_mean(self, grid8):
        c = SpectralVectorField.zeros(grid8).coeffs
        c[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            sobolev_norm(SpectralVectorField(c, grid8), -1.0, homogeneous=True)

    def test_parseval(self, grid16):
        s = random_divfree(grid16, seed=21, l2_norm=3.0)
        p = inverse_transform(s)
        quadrature = np.sqrt(np.sum(p.values**2) * grid16.cell_volume)
        assert quadrature == pytest.approx(sobolev_norm(s, 0.0), rel=1e-12)
