"""Shared builders and brute-force oracles for the test suite.

Fields are plain arrays of packed ball modes, (3, M) for one vector field,
with their grid passed beside them, as in the package.  Tests that need the
half spectrum (N, N, N/2+1) reach it through :func:`unpack` and
:func:`half_tables`.  The oracles here (full transforms, the convective form
of the nonlinear term, the damping contraction, the sampled Gronwall lemma)
are references the package's own code is held to; they are not part of it.
"""

import contextlib
import struct
import zlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import scipy.fft

from mhddamp import DampingSpec, MhdState, energy
from mhddamp import grid as grid_module
from mhddamp.damping import damping_term, speed_sq
from mhddamp.fields import fft_x, rfft_zy, slab_pass
from mhddamp.lemmas import CheckReport
from mhddamp.nonlinear import Workspace, _rhs_core
from mhddamp.operators import leray_project_coeffs, sobolev_norm, truncate_coeffs, viscous_symbol


def half_tables(grid) -> SimpleNamespace:
    """The half spectrum's (N, N, N/2+1) tables, built from the wavenumber
    axis alone: ``kx``, ``ky``, ``kz`` and ``k_sq`` (broadcast to full
    size), ``keep_mask`` (|k| < R) and ``parseval_weight`` (1 on the planes
    k3 = 0 and k3 = N/2, 2 in between)."""
    n = grid.n_modes
    k = grid.k1d
    kx, ky, kz = (np.broadcast_to(a, grid.spectral_shape) for a in
                  (k[:, None, None], k[None, :, None], k[None, None, : n // 2 + 1]))
    k_sq = kx * kx + ky * ky + kz * kz
    weight = np.full(grid.spectral_shape, 2.0)
    weight[..., 0] = weight[..., -1] = 1.0
    return SimpleNamespace(kx=kx, ky=ky, kz=kz, k_sq=k_sq, parseval_weight=weight,
                           keep_mask=k_sq < grid.truncation_radius**2)


def unpack(packed: np.ndarray, grid) -> np.ndarray:
    """Packed (..., M) ball modes as a new (..., N, N, N/2+1) half spectrum,
    zero outside the ball.  ``truncate_coeffs`` is the inverse."""
    half = np.zeros(packed.shape[:-1] + grid.spectral_shape, dtype=np.complex128)
    half[..., half_tables(grid).keep_mask] = packed
    return half


def coeffs_of(values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of stacked real (..., N, N, N) values: the
    full 3-D transform, every mode kept."""
    return scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")


def values_of(coeffs: np.ndarray, grid) -> np.ndarray:
    """Real point values of stacked packed ball modes: the full 3-D inverse
    transform of their half spectrum."""
    n = grid.n_modes
    return scipy.fft.irfftn(unpack(coeffs, grid), s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def mesh(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable (X1, X2, X3) coordinate arrays of the N^3 collocation
    points 2*pi j / N."""
    x = grid.box_length / grid.n_modes * np.arange(grid.n_modes)
    return x[:, None, None], x[None, :, None], x[None, None, :]


def fft_grid(values: np.ndarray, grid) -> np.ndarray:
    """Packed (..., M) ball modes of the Fourier-series coefficients of
    stacked real (..., N, N, N) grids, by the package's own forward passes
    run on the whole grid at once: equal to those of the full 1-D passes
    in the order z, y, x for any finite input, and to rfftn to round-off."""
    return fft_x(rfft_zy(values, grid), grid)


def ifft_grid(coeffs: np.ndarray, grid) -> np.ndarray:
    """Real point values of packed (..., M) ball modes on the N^3 grid, by
    the package's own inverse passes run on the whole half spectrum at
    once.  Only the Hermitian part of the plane k3 = 0 counts."""
    stack = coeffs.reshape(-1, coeffs.shape[-1])
    staging = np.empty(stack.shape[:-1] + grid.spectral_shape, dtype=np.complex128)
    work = SimpleNamespace(staging=staging, width=grid.n_modes, columns=None)
    _, (values,) = slab_pass(stack, grid, work, lambda x0, values, out: values)
    return values.reshape(coeffs.shape[:-1] + grid.shape)


def pair_state(grid, u, b=None) -> MhdState:
    """A state holding copies of the fields u and b (zero when None)."""
    state = MhdState.zeros(grid)
    state.u[...] = u
    if b is not None:
        state.b[...] = b
    return state


def leray(coeffs: np.ndarray, grid) -> np.ndarray:
    """The Leray projection of ``coeffs`` as a new array."""
    return leray_project_coeffs(coeffs.copy(), grid)


def inner_l2(a: np.ndarray, b: np.ndarray, grid) -> float:
    """L2 inner product over the box, (2*pi)^3 sum Re(c_a . conj(c_b))."""
    re = a.real * b.real + a.imag * b.imag
    return grid.volume * float(np.sum(grid.parseval_weight * re))


def gradient_coeffs(coeffs: np.ndarray, grid, out=None) -> np.ndarray:
    """The derivative coefficients i k_j c_i of each packed component c_i
    of ``coeffs`` in out[3 i + j]; a new (3 len(coeffs), M) array when
    ``out`` is None."""
    if out is None:
        out = np.empty((3 * len(coeffs),) + grid.k_sq.shape, dtype=np.complex128)
    for i, c in enumerate(coeffs):
        for j, k in enumerate((grid.kx, grid.ky, grid.kz)):
            np.multiply(1j * k, c, out=out[3 * i + j])
    return out


def hermitian_symmetrize(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    rev = (-np.arange(n)) % n
    return 0.5 * (c + np.conj(c[..., rev, :, :][..., :, rev, :][..., :, :, rev]))


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """The stored half k3 = 0..N/2 of full (..., N, N, N) spectra."""
    n = c.shape[-1]
    return np.ascontiguousarray(c[..., : n // 2 + 1])


def full_spectrum(c: np.ndarray) -> np.ndarray:
    """Full (..., N, N, N) spectra of real fields from their stored half,
    filling k3 < 0 by c(-k) = conj(c(k))."""
    n = c.shape[-2]
    rev = (-np.arange(n)) % n
    full = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = c
    mirror = np.conj(c[..., rev, :, :][..., :, rev, :])
    full[..., n // 2 + 1:] = mirror[..., 1 : n // 2][..., ::-1]
    return full


def random_divfree(grid, seed, h1_norm=None, l2_norm=None, band=None, decay=2.0):
    """Smooth random divergence-free packed (3, M) coefficients of a real
    field in the grid's ball, optionally rescaled."""
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = truncate_coeffs(half_spectrum(hermitian_symmetrize(c)), grid)
    c *= (1.0 + grid.k_sq) ** (-decay)
    c[:, 0] = 0.0
    if band is not None:
        c[:, grid.k_sq >= band * band] = 0.0
    s = leray_project_coeffs(c, grid)
    if h1_norm is not None:
        s *= h1_norm / sobolev_norm(s, grid, 1.0)
    elif l2_norm is not None:
        s *= l2_norm / sobolev_norm(s, grid, 0.0)
    return s


def dft_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(N^6) DFT sum: c(k) = N^-3 sum_x f(x) exp(-i k.x).

    Independent of any FFT library; N = 8 keeps it affordable.  Returns the
    stored half spectrum.
    """
    n = values.shape[-1]
    x = 2.0 * np.pi * np.arange(n) / n
    j = np.arange(n)
    k1d = np.where(j <= n // 2, j, j - n)
    e1 = np.exp(-1j * np.outer(k1d, x))  # (k, x)
    return half_spectrum(np.einsum("kx,ly,mz,...xyz->...klm", e1, e1, e1, values) / n**3)


def ball_modes(radius: float):
    """Integer wavevectors with 0 < |k| or k = 0 inside the open ball."""
    r = int(np.floor(radius))
    out = []
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            for k3 in range(-r, r + 1):
                if k1 * k1 + k2 * k2 + k3 * k3 < radius * radius:
                    out.append((k1, k2, k3))
    return out


def convolution_oracle_vgradw(v: np.ndarray, w: np.ndarray, grid) -> np.ndarray:
    """True (unaliased) convolution sum for v.grad w restricted to |k| < R.

    (v.grad w)^(k) = sum_{p+q=k} sum_j v_j(p) (i q_j) w(q); quadratic in the
    mode count of the ball, so meant for N = 8.  Sums over the full spectra
    of the packed inputs and returns the packed ball modes.
    """
    v_full = full_spectrum(unpack(v, grid))
    w_full = full_spectrum(unpack(w, grid))
    out = np.zeros((3,) + grid.shape, dtype=np.complex128)
    modes = ball_modes(grid.truncation_radius)
    radius_sq = grid.truncation_radius**2
    for p in modes:
        vp = v_full[:, p[0], p[1], p[2]]
        if not np.any(vp):
            continue
        for q in modes:
            wq = w_full[:, q[0], q[1], q[2]]
            if not np.any(wq):
                continue
            k = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
            if k[0] ** 2 + k[1] ** 2 + k[2] ** 2 >= radius_sq:
                continue
            coeff = 1j * (vp[0] * q[0] + vp[1] * q[1] + vp[2] * q[2])
            out[:, k[0], k[1], k[2]] += coeff * wq
    return truncate_coeffs(half_spectrum(out), grid)


@contextlib.contextmanager
def slab_planes(n: int, planes: int):
    """Within the block the physical-space pass at N = ``n`` runs in slabs
    of at most ``planes`` x-planes (``grid.slab_width``)."""
    budget = planes * grid_module._slab_plane_bytes(n)
    with mock.patch.object(grid_module, "SLAB_BYTES", budget):
        assert grid_module.slab_width(n) <= planes
        yield


def velocity_squares_oracle(u: np.ndarray, grid, work, body) -> list:
    """Returns [body(q, |grad u|^2, |grad q|^2)] on the whole grid, as for
    one slab of ``energy._velocity_squares``, from one 12-grid batch (u and
    its nine derivatives) transformed at full size in a single call."""
    batch = np.empty((12,) + grid.k_sq.shape, dtype=np.complex128)
    batch[0:3] = u
    gradient_coeffs(u, grid, batch[3:12])
    phys = ifft_grid(batch, grid)
    grad_u_sq = speed_sq(phys[3:12])
    q = speed_sq(phys[0:3])
    gq = gradient_coeffs(fft_grid(q, grid)[None], grid)
    grad_q_sq = speed_sq(ifft_grid(gq, grid))
    return [body(q, grad_u_sq, grad_q_sq)]


def ledger_row_oracle(state, damping) -> dict:
    """``ledger_row`` with its pointwise data taken from
    :func:`velocity_squares_oracle`."""
    with mock.patch.object(energy, "_velocity_squares", velocity_squares_oracle):
        return energy.ledger_row(state, damping)


def embed_coeffs(c_small: np.ndarray, grid_small, grid_big) -> np.ndarray:
    """Copy packed coefficients from a coarse grid into a finer one by
    wavenumber."""
    nb = grid_big.n_modes
    r = int(np.ceil(grid_small.truncation_radius))
    idx = np.arange(-r, r + 1)
    big = np.zeros((3, nb, nb, nb), dtype=np.complex128)
    ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
    big[:, ii, jj, kk] = full_spectrum(unpack(c_small, grid_small))[:, ii, jj, kk]
    return truncate_coeffs(half_spectrum(big), grid_big)


def write_checkpoint(path, grid, coeffs, t, version=3) -> None:
    """A checkpoint file holding packed (6, M) ``coeffs`` as they are, under
    a header that names ``version``, with the CRC that makes it intact."""
    data = struct.pack("<4sIqdd", b"MHDF", version, grid.n_modes, grid.truncation_radius, t)
    data += coeffs.astype("<c16").tobytes()
    path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))


def half_hermitian_defect(coeffs: np.ndarray) -> float:
    """Defect max |c(-k) - conj(c(k))| on the self-conjugate planes k3 = 0
    and k3 = N/2 of stacked half spectra (..., N, N, N/2+1): the reference
    for :func:`mhddamp.fields.hermitian_defect`, which looks at packed
    modes."""
    n = coeffs.shape[-2]
    rev = (-np.arange(n)) % n
    defect = [
        np.max(np.abs(np.conj(coeffs[..., j][..., rev, :][..., rev]) - coeffs[..., j]))
        for j in (0, n // 2)
    ]
    return float(np.max(defect))


MALFORMED_CHECKPOINTS = (
    "five_bytes", "header_only", "huge_n", "truncated_payload", "trailing_bytes", "zero_n",
)


def malformed_checkpoint(good: bytes, case: str) -> bytes:
    """A well-formed checkpoint file broken in the named way."""
    header = 32  # magic, version, N, radius, time
    return {
        "five_bytes": good[:5],
        "header_only": good[:header],
        "huge_n": good[:8] + (10**6).to_bytes(8, "little") + good[16:],
        "truncated_payload": good[:-16],
        "trailing_bytes": good + b"\0",
        "zero_n": good[:8] + (0).to_bytes(8, "little") + good[16:header],
    }[case]


# Oracles ----------------------------------------------------------------


def convection(v: np.ndarray, w: np.ndarray, grid) -> np.ndarray:
    """Dealiased coefficients of v.grad w = sum_j v_j d_j w, in convective
    form with full transforms: the reference for the solver's divergence
    form.  Both inputs are packed to the dealias ball; so is the result.
    """
    batch = np.empty((12,) + grid.k_sq.shape, dtype=np.complex128)
    batch[0:3] = v
    gradient_coeffs(w, grid, batch[3:12])
    phys = values_of(batch, grid)
    vp = phys[0:3]
    out = np.empty((3,) + grid.shape, dtype=np.float64)
    for i in range(3):
        gw = phys[3 + 3 * i:6 + 3 * i]
        out[i] = vp[0] * gw[0] + vp[1] * gw[1] + vp[2] * gw[2]
    return truncate_coeffs(coeffs_of(out), grid)


def rhs_mhd(state, grid, nu_h=1.0, nu_v=1.0, damping=DampingSpec()):
    """Full tendency (du/dt, db/dt) of the damped MHD system, viscous term
    included: the solver's right-hand side, packed."""
    if not np.all(np.isfinite(state.coeffs)):
        raise ValueError("state contains non-finite coefficients")
    dw, _ = _rhs_core(state.coeffs, grid, damping, False, Workspace(grid))
    dw -= viscous_symbol(grid, nu_h, nu_v) * state.coeffs
    return dw[0:3], dw[3:6]


def damping_contraction_pointwise(
    u_values: np.ndarray, s_values: np.ndarray, damping: DampingSpec
) -> np.ndarray:
    """Pointwise integrand <F(u) - F(s), u - s> on the collocation grid."""
    fu = damping_term(u_values, damping)
    fs = damping_term(s_values, damping)
    diff = u_values - s_values
    return np.sum((fu - fs) * diff, axis=0)


def damping_contraction_check(
    u_values: np.ndarray, s_values: np.ndarray, damping: DampingSpec, grid
) -> float:
    """Quadrature of <F(u) - F(s), u - s> over the box, from the (3, N, N, N)
    point values of u and s on ``grid``.

    Nonnegative for both damping families (the damping map is monotone), so
    the difference-energy contribution of the damping term has a sign.
    """
    if not u_values.shape == s_values.shape == (3,) + grid.shape:
        raise ValueError("fields must share one grid")
    integrand = damping_contraction_pointwise(u_values, s_values, damping)
    return float(np.sum(integrand)) * grid.cell_volume


def gronwall_check(
    t: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    bound: float,
    tol: float = 1e-9,
) -> CheckReport:
    """Sampled Gronwall lemma with trapezoidal integrals.

    Hypothesis (verified first): f(t) + int_0^t g <= bound + int_0^t h f at
    every sample.  If it fails the report is NOT-APPLICABLE.  Otherwise the
    conclusion f(t) + int_0^t g <= bound * exp(int_0^t h) is checked with
    tolerance ``tol`` on the margins.
    """
    t = np.asarray(t, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if not (t.shape == f.shape == g.shape == h.shape):
        raise ValueError("series must share one shape")
    if np.any(f < 0) or np.any(g < 0) or np.any(h < 0):
        raise ValueError("series must be nonnegative")

    def running_trapezoid(y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y)
        if y.size > 1:
            out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
        return out

    int_g = running_trapezoid(g)
    int_hf = running_trapezoid(h * f)
    int_h = running_trapezoid(h)

    hyp_margins = bound + int_hf - f - int_g
    scale = max(bound, float(np.max(f + int_g)), 1.0)
    if float(np.min(hyp_margins)) < -1e-12 * scale:
        i = int(np.argmin(hyp_margins))
        return CheckReport(
            "lemma_gronwall",
            "NOT-APPLICABLE",
            worst_margin=float(hyp_margins[i]),
            worst_time=float(t[i]),
            samples=t.size,
            detail="hypothesis fails on the sampled series",
        )

    margins = bound * np.exp(int_h) - f - int_g
    i = int(np.argmin(margins))
    return CheckReport(
        "lemma_gronwall",
        "PASS" if margins[i] >= -tol * scale else "FAIL",
        worst_margin=float(margins[i]),
        worst_time=float(t[i]),
        samples=t.size,
    )
