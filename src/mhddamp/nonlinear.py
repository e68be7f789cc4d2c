"""
Pseudo-spectral evaluation of the convective, coupling and damping terms.

Products are formed pointwise on the collocation grid and truncated back to
the spectral ball, which is alias-free for quadratic products as long as the
inputs live inside the default 2/3 cutoff.  Momentum and induction tendencies
follow the standard incompressible MHD form

    du/dt = P[-(u.grad u - b.grad b) - damping(u)] + nu Lap u
    db/dt = -(u.grad b - b.grad u)                 + nu Lap b

with P the Leray projection (the pressure gradient is eliminated by P).  This
is the unique sign arrangement for which the quadratic terms cancel exactly
in the L2 energy balance of the pair (u, b).
"""

from __future__ import annotations

import numpy as np

from .damping import DampingSpec, damping_term
from .fields import (
    NonFiniteFieldError,
    SpectralVectorField,
    fft_grid,
    ifft_grid,
)
from .grid import GridSpec
from .operators import gradient_coeffs, leray_project_coeffs, viscous_symbol
from .state import MhdState


def convection(v: SpectralVectorField, w: SpectralVectorField) -> SpectralVectorField:
    """Dealiased spectral representation of v.grad w = sum_j v_j d_j w.

    Both inputs are expected inside the dealias ball; the result is truncated
    to it.
    """
    grid = v.grid
    batch = np.empty((12,) + grid.spectral_shape, dtype=np.complex128)
    batch[0:3] = v.coeffs
    gradient_coeffs(w.coeffs, grid, batch[3:12])
    phys = ifft_grid(batch, grid.n_modes)
    vp = phys[0:3]
    out = np.empty((3,) + grid.shape, dtype=np.float64)
    for i in range(3):
        gw = phys[3 + 3 * i:6 + 3 * i]
        out[i] = vp[0] * gw[0] + vp[1] * gw[1] + vp[2] * gw[2]
    return SpectralVectorField(fft_grid(out) * grid.keep_mask, grid)


def _curl_coeffs(c: np.ndarray, grid: GridSpec, out: np.ndarray) -> None:
    kx, ky, kz = grid.kx, grid.ky, grid.kz
    out[0] = 1j * (ky * c[2] - kz * c[1])
    out[1] = 1j * (kz * c[0] - kx * c[2])
    out[2] = 1j * (kx * c[1] - ky * c[0])


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]


def _rhs_core(
    u_c: np.ndarray,
    b_c: np.ndarray,
    grid: GridSpec,
    damping: DampingSpec,
    want_dissipation: bool,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Non-viscous tendency on raw coefficient arrays: the quadratic terms and
    the damping, without the viscous term, which the integrator treats exactly
    through its integrating factor.

    The quadratic terms are evaluated in rotational/curl form,

        P[-(u.grad u - b.grad b)] = P[-(curl u) x u + (curl b) x b]
        -(u.grad b - b.grad u)    = curl(u x b),

    which agrees with the convective form exactly on the dealiased modes for
    divergence-free inputs (the forms differ by gradients, annihilated by P,
    and the products are alias-free inside the spectral ball) while needing
    half the inverse transforms.

    Returns (du_c, db_c, damp_diss) where damp_diss is the alpha-stripped
    damping dissipation integrand over the box: ||u||^(beta+1)_L^(beta+1)
    for power damping, || f(|u|^2) |u|^4 ||_L1 for generalized damping,
    0 otherwise.  Only computed when requested.
    """
    # One batched inverse transform: u, b and both vorticities.
    batch = np.empty((12,) + grid.spectral_shape, dtype=np.complex128)
    batch[0:3] = u_c
    batch[3:6] = b_c
    _curl_coeffs(u_c, grid, batch[6:9])
    _curl_coeffs(b_c, grid, batch[9:12])
    phys = ifft_grid(batch, grid.n_modes)
    up = phys[0:3]
    bp = phys[3:6]

    fwd = np.empty((6,) + grid.shape, dtype=np.float64)
    _cross(phys[9:12], bp, fwd[0:3])   # (curl b) x b,   toward du/dt
    momentum = fwd[0:3]
    tmp = np.empty((3,) + grid.shape, dtype=np.float64)
    _cross(phys[6:9], up, tmp)         # (curl u) x u
    momentum -= tmp
    _cross(up, bp, fwd[3:6])           # u x b,          toward db/dt

    damp_diss = 0.0
    if damping.kind != "none":
        dmp = damping_term(up, damping)
        momentum -= dmp
        if want_dissipation:
            # <damping(u), u> / alpha by collocation quadrature
            damp_diss = float(np.sum(dmp[0] * up[0] + dmp[1] * up[1] + dmp[2] * up[2]))
            damp_diss *= grid.cell_volume / damping.alpha

    hat = fft_grid(fwd)
    hat *= grid.keep_mask
    du_c = leray_project_coeffs(hat[0:3], grid)
    db_c = np.empty((3,) + grid.spectral_shape, dtype=np.complex128)
    _curl_coeffs(hat[3:6], grid, db_c)
    return du_c, db_c, damp_diss


def rhs_mhd(
    state: MhdState,
    grid: GridSpec | None = None,
    nu_h: float = 1.0,
    nu_v: float = 1.0,
    damping: DampingSpec = DampingSpec(),
) -> tuple[SpectralVectorField, SpectralVectorField]:
    """Full tendency (du/dt, db/dt) of the damped MHD system, viscous term
    included."""
    grid = grid or state.grid
    if not state.is_finite():
        raise NonFiniteFieldError("state contains non-finite coefficients")
    u_c, b_c = state.u.coeffs, state.b.coeffs
    du_c, db_c, _ = _rhs_core(u_c, b_c, grid, damping, want_dissipation=False)
    sym = viscous_symbol(grid, nu_h, nu_v)
    du_c -= sym * u_c
    db_c -= sym * b_c
    return SpectralVectorField(du_c, grid), SpectralVectorField(db_c, grid)
