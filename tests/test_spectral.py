"""Transforms, truncation, Leray projection, derivatives and norms."""

import numpy as np
import pytest

from mhddamp import GridSpec, sobolev_norm
from mhddamp.energy import spectral_sums
from mhddamp.fields import HERMITIAN_TOL, hermitian_defect
from mhddamp.operators import (
    divergence,
    divergence_l2,
    truncate_coeffs,
    viscous_symbol,
    weighted_sum_sq,
)

from _helpers import (
    dft_oracle,
    fft_grid,
    full_spectrum,
    gradient_coeffs,
    half_spectrum,
    half_tables,
    ifft_grid,
    inner_l2,
    leray,
    mesh,
    random_divfree,
    unpack,
)


def random_half(seed, n):
    """Random (3, N, N, N/2+1) coefficients, not those of a real field."""
    rng = np.random.default_rng(seed)
    return half_spectrum(rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n)))


def random_coeffs(seed, grid):
    """Random packed (3, M) coefficients, not those of a real field."""
    return truncate_coeffs(random_half(seed, grid.n_modes), grid)


def half_l2_sq(coeffs, grid):
    """(2*pi)^3 sum |c(k)|^2 over all wavenumbers, from (..., N, N, N/2+1)
    half-spectrum coefficients."""
    weight = half_tables(grid).parseval_weight
    return grid.volume * float(np.sum(weight * np.abs(coeffs) ** 2))


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

    @pytest.mark.parametrize(
        "kw,match",
        [
            ({"box_length": float("nan")}, "box_length"),
            ({"dealias_fraction": True}, "dealias_fraction"),
            ({"dealias_fraction": float("nan")}, "dealias_fraction"),
            ({"truncation_radius": True}, "truncation_radius"),
            ({"truncation_radius": "3"}, "truncation_radius"),
        ],
        ids=["box-nan", "dealias-bool", "dealias-nan", "radius-bool", "radius-string"],
    )
    def test_rejects_non_number_parameters(self, kw, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(n_modes=16, **kw)

    def test_wavenumber_range(self, grid16):
        k = grid16.k1d
        assert k.min() == -7 and k.max() == 8
        assert set(k) == set(range(-7, 9))

    def test_half_spectrum_layout(self, grid16):
        # the packed modes are the ball's, in the C order of the half spectrum
        assert grid16.spectral_shape == (16, 16, 9)
        half = half_tables(grid16)
        assert np.array_equal(grid16.index, np.flatnonzero(half.keep_mask))
        assert grid16.k_sq.shape == grid16.index.shape
        assert set(grid16.kz.tolist()) == set(range(grid16.kc + 1)) == set(range(6))
        assert grid16.parseval_weight.tolist() == [1.0 if k == 0 else 2.0 for k in grid16.kz]
        assert not half.keep_mask[..., -1].any()  # the plane k3 = N/2 is truncated
        # no array of the grid has the half spectrum's size
        assert all(np.size(v) <= grid16.index.size for v in vars(grid16).values())


class TestTransforms:
    def test_constant_field_dc_mode(self, grid8):
        c = fft_grid(np.ones((3, 8, 8, 8)), grid8)
        assert c[0, 0] == pytest.approx(1.0)  # k = 0 is the first packed mode
        off_dc = c.copy()
        off_dc[:, 0] = 0.0
        assert np.max(np.abs(off_dc)) < 1e-14

    def test_sin_coefficients_match_dft_oracle(self, grid8):
        x1, _, _ = mesh(grid8)
        vals = np.zeros((3, 8, 8, 8))
        vals[0] = np.sin(x1) + 0.0 * x1
        c = unpack(fft_grid(vals, grid8), grid8)
        # analytic series of sin: -i/2 at k=+1, +i/2 at k=-1
        assert c[0, 1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert c[0, -1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        oracle = dft_oracle(vals) * half_tables(grid8).keep_mask
        assert np.max(np.abs(c - oracle)) < 1e-13

    def test_round_trip_identity(self, grid16):
        # point values of a real field band-limited to the ball
        rng = np.random.default_rng(0)
        p = ifft_grid(fft_grid(rng.standard_normal((3, 16, 16, 16)), grid16), grid16)
        p2 = ifft_grid(fft_grid(p, grid16), grid16)
        scale = np.max(np.abs(p))
        assert np.max(np.abs(p2 - p)) <= 1e-12 * scale

    def test_spectral_round_trip(self, grid16):
        s = random_divfree(grid16, seed=1, l2_norm=1.0)
        s2 = fft_grid(ifft_grid(s, grid16), grid16)
        assert np.max(np.abs(s2 - s)) <= 1e-12 * np.max(np.abs(s))

    def test_zero_coefficients_give_zero_field(self, grid8):
        p = ifft_grid(np.zeros((3,) + grid8.index.shape, dtype=np.complex128), grid8)
        assert np.all(p == 0.0)

    def test_hermitian_pair_gives_sin(self, grid8):
        c = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
        c[0, 1, 0, 0] = -0.5j
        c[0, -1, 0, 0] = 0.5j
        p = ifft_grid(truncate_coeffs(c, grid8), grid8)
        x1, _, _ = mesh(grid8)
        expected = np.sin(x1) + np.zeros_like(p[0])
        assert np.max(np.abs(p[0] - expected)) <= 1e-12
        assert np.max(np.abs(p[1:])) == 0.0

    def test_rejects_broken_hermitian_symmetry(self, grid8):
        # the defect above which a loaded checkpoint is rejected as not real
        c = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
        c[0, 1, 0, 0] = 1.0  # no conjugate partner
        assert hermitian_defect(c) > HERMITIAN_TOL * np.max(np.abs(c))

    def test_hermitian_defect_measures_real_fields(self, grid16):
        s = unpack(random_divfree(grid16, seed=5, l2_norm=1.0), grid16)
        scale = np.max(np.abs(s))
        assert hermitian_defect(s) <= 1e-12 * scale
        s[0, 3, 0, 0] += 0.5
        scale = np.max(np.abs(s))
        assert hermitian_defect(s) > 1e-3 * scale


def cut(radius, n=16):
    """The grid of size n whose truncation radius is ``radius``."""
    return GridSpec(n_modes=n, truncation_radius=radius)


class TestFriedrichsTruncate:
    def test_cutoff_beyond_grid_is_identity(self, grid8):
        # the field lies in the default ball, inside the Nyquist ball R = N/2
        s = unpack(random_divfree(grid8, seed=2, l2_norm=1.0), grid8)
        wide = cut(4.0, n=8)
        s2 = truncate_coeffs(s, wide)
        assert np.array_equal(unpack(s2, wide), s)

    def test_single_mode_outside_cutoff_vanishes(self, grid16):
        c = np.zeros((3,) + grid16.spectral_shape, dtype=np.complex128)
        c[0, 5, 0, 0] = 1.0
        c[0, -5, 0, 0] = 1.0
        out = truncate_coeffs(c, cut(4.0))
        assert np.all(out == 0.0)

    def test_l2_contraction(self, grid16):
        # Parseval: dropping modes cannot increase the L2 norm
        s = random_half(3, 16)
        norm_sq = half_l2_sq(s, grid16)
        for radius in (2.0, 4.0, 6.0):
            kept = truncate_coeffs(s, cut(radius))
            assert weighted_sum_sq(kept, 1.0, cut(radius)) <= norm_sq + 1e-12

    def test_idempotent(self, grid16):
        s = unpack(random_divfree(grid16, seed=4, l2_norm=1.0), grid16)
        once = truncate_coeffs(s, cut(3.5))
        twice = truncate_coeffs(unpack(once, cut(3.5)), cut(3.5))
        assert np.array_equal(once, twice)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid16):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((16, 16, 16))
        q_hat = truncate_coeffs(half_spectrum(np.fft.fftn(q) / 16**3), grid16)
        q_hat[0] = 0.0
        c = np.stack([1j * grid16.kx * q_hat, 1j * grid16.ky * q_hat, 1j * grid16.kz * q_hat])
        out = leray(c, grid16)
        assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(c))

    def test_fixes_divergence_free_fields(self, grid16):
        s = random_divfree(grid16, seed=8, l2_norm=1.0)
        out = leray(s, grid16)
        assert np.max(np.abs(out - s)) <= 1e-12 * np.max(np.abs(s))

    def test_idempotent(self, grid16):
        once = leray(random_coeffs(9, grid16), grid16)
        twice = leray(once, grid16)
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))

    def test_result_divergence_free(self, grid16):
        out = leray(random_coeffs(10, grid16), grid16)
        assert divergence_l2(out, grid16) <= 1e-10 * np.sqrt(weighted_sum_sq(out, 1.0, grid16))

    def test_mean_mode_passes_through(self, grid8):
        c = np.zeros((3,) + grid8.index.shape, dtype=np.complex128)
        c[:, 0] = [1.0, 2.0, 3.0]
        out = leray(c, grid8)
        assert np.array_equal(out, c)

    def test_self_adjoint(self, grid16):
        a = random_coeffs(11, grid16)
        b = random_coeffs(13, grid16)
        lhs = inner_l2(leray(a, grid16), b, grid16)
        rhs = inner_l2(a, leray(b, grid16), grid16)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_orthogonal_decomposition(self, grid16):
        f = random_coeffs(15, grid16)
        pf = leray(f, grid16)
        total = weighted_sum_sq(f, 1.0, grid16)
        parts = weighted_sum_sq(pf, 1.0, grid16) + weighted_sum_sq(f - pf, 1.0, grid16)
        assert abs(total - parts) <= 1e-12 * total


class TestDerivatives:
    def test_divergence_of_perpendicular_mode(self, grid8):
        x1, _, _ = mesh(grid8)
        vals = np.zeros((3, 8, 8, 8))
        vals[1] = np.sin(x1) + 0.0 * x1
        s = fft_grid(vals, grid8)
        assert np.max(np.abs(divergence(s, grid8))) <= 1e-14

    def test_laplacian_eigenfunction(self, grid16):
        # finite-difference oracle confirms the expected -sin(x1) field
        n_fd = 128
        h = 2 * np.pi / n_fd
        xf = h * np.arange(n_fd)
        fd = (np.roll(np.sin(xf), -1) - 2 * np.sin(xf) + np.roll(np.sin(xf), 1)) / h**2
        assert np.max(np.abs(fd + np.sin(xf))) < 1e-3

        x1, _, _ = mesh(grid16)
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x1) + 0.0 * x1
        s = fft_grid(vals, grid16)
        lap = ifft_grid(-viscous_symbol(grid16, 1.0, 1.0) * s, grid16)
        assert np.max(np.abs(lap[0] + vals[0])) <= 1e-12

    def test_anisotropic_coefficients(self, grid16):
        _, _, x3 = mesh(grid16)
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x3) + 0.0 * x3
        s = fft_grid(vals, grid16)
        lap = ifft_grid(-viscous_symbol(grid16, 7.0, 2.0) * s, grid16)
        assert np.max(np.abs(lap[0] + 2.0 * vals[0])) <= 1e-12

    def test_gradient_of_constant_is_zero(self, grid8):
        g = gradient_coeffs(fft_grid(np.ones((3, 8, 8, 8)) * 2.5, grid8), grid8)
        assert np.max(np.abs(g)) <= 1e-14

    def test_trig_polynomial_derivative_exact(self, grid16):
        # d/dx1 of sin(2 x1) cos(x2) = 2 cos(2 x1) cos(x2), inside the ball
        x1, x2, _ = mesh(grid16)
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(2 * x1) * np.cos(x2)
        g = gradient_coeffs(fft_grid(vals, grid16), grid16).reshape((3, 3) + grid16.index.shape)
        d1 = ifft_grid(g[:, 0], grid16)
        expected = 2 * np.cos(2 * x1) * np.cos(x2) + np.zeros_like(vals[0])
        assert np.max(np.abs(d1[0] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSobolevNorms:
    # the homogeneous norms are the ledger's spectral sums:
    # ||w||^2, ||grad w||^2, ||Lap w||^2
    def test_single_mode_homogeneous_equals_l2(self, grid16):
        x1, _, _ = mesh(grid16)
        vals = np.zeros((3, 16, 16, 16))
        vals[0] = np.sin(x1) + 0.0 * x1
        s = fft_grid(vals, grid16)
        # |k| = 1 exactly, so the H^1-dot weight is 1; verify by summation
        # over the full spectrum
        k = grid16.k1d
        k_sq = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        direct = np.sqrt(grid16.volume * np.sum(k_sq * np.abs(full_spectrum(unpack(s, grid16))) ** 2))
        h1dot = np.sqrt(spectral_sums(s, grid16)[1])
        assert h1dot == pytest.approx(direct, rel=1e-14)
        assert h1dot == pytest.approx(sobolev_norm(s, grid16, 0.0), rel=1e-12)

    def test_zero_field_all_orders(self, grid8):
        z = np.zeros((3,) + grid8.index.shape, dtype=np.complex128)
        assert spectral_sums(z, grid8) == (0.0, 0.0, 0.0)
        for order in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm(z, grid8, order) == 0.0

    def test_order_zero_homogeneous_matches_l2(self, grid16):
        s = random_divfree(grid16, seed=20, l2_norm=2.0)
        assert np.sqrt(spectral_sums(s, grid16)[0]) == pytest.approx(
            sobolev_norm(s, grid16, 0.0), rel=1e-12
        )

    def test_parseval(self, grid16):
        s = random_divfree(grid16, seed=21, l2_norm=3.0)
        p = ifft_grid(s, grid16)
        quadrature = np.sqrt(np.sum(p**2) * grid16.cell_volume)
        assert quadrature == pytest.approx(sobolev_norm(s, grid16, 0.0), rel=1e-12)
