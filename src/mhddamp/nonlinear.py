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

The solver evaluates the quadratic terms in divergence form (Basdevant,
J. Comput. Phys. 50, 1983).  For divergence-free u and b,

    u.grad u - b.grad b    = div(u u - b b) = div T + grad(tr/3)
    -(u.grad b - b.grad u) = curl(u x b),

with T the trace-free part of u u - b b and tr its trace; P removes the
gradient.  So only w = (u, b) goes to the grid (6 fields), and the 5
independent entries of T, u x b and the damping come back (11 fields, 8
without damping).

The solver's right-hand side :func:`_rhs_core` takes and returns w packed
to the ball |k| < R, the only modes of the truncated system (see
:mod:`mhddamp.grid`): its spectral arithmetic runs on those M modes alone,
and only the transforms see the full grids.
"""

from __future__ import annotations

import numpy as np

from .damping import DampingSpec, damping_term
from .fields import slab_pass
from .grid import WORKSPACE_GRIDS, GridSpec, slab_width
from .operators import leray_project_coeffs


class Workspace:
    """The buffers of one stepper, one attribute per entry of
    :data:`mhddamp.grid.WORKSPACE_GRIDS`, allocated once, and the slab
    width ``width`` of its physical-space pass, as
    :func:`mhddamp.fields.slab_pass` takes them; its docstring says which
    pass runs in which buffer.  It serves every trajectory the stepper
    steps (a twin's three), and the ledger rows and CFL bound taken
    between its steps."""

    def __init__(self, grid: GridSpec):
        n = grid.n_modes
        self.width = slab_width(n)
        layouts = {
            "columns": (grid.column_shape, np.complex128),
            "slab": ((self.width, n, n), np.float64),
            "spectral_slab": ((self.width,) + grid.spectral_shape[1:], np.complex128),
            "packed": (grid.index.shape, np.complex128),
        }
        for name, count, layout in WORKSPACE_GRIDS:
            shape, dtype = layouts[layout]
            one_slab = layout == "columns" and self.width == n  # the kernel's output serves
            setattr(self, name, None if one_slab else np.zeros((count,) + shape, dtype=dtype))
        for ik, k in zip(self.ik, (grid.kx, grid.ky, grid.kz)):
            np.multiply(1j, k, out=ik)


def _products(phys: np.ndarray, out: np.ndarray) -> None:
    """Write the entries T11 T12 T13 T22 T23 of the trace-free part of
    u u - b b, then u x b, into out[0:8] from the point values
    phys = (u, b).  Overwrites b2 of ``phys``."""
    u1, u2, u3, b1, b2, b3 = phys
    t11, t12, t13, t22, t23, c1, c2, c3 = out[:8]
    # c1 and c2 serve as scratch until u x b is formed
    np.multiply(u1, u1, out=t11)
    t11 -= np.multiply(b1, b1, out=c1)
    np.multiply(u2, u2, out=t22)
    t22 -= np.multiply(b2, b2, out=c1)
    np.multiply(u3, u3, out=c2)
    c2 -= np.multiply(b3, b3, out=c1)
    np.add(t11, t22, out=c1)
    c1 += c2
    c1 /= 3.0
    t11 -= c1
    t22 -= c1
    for t, i, j in ((t12, 0, 1), (t13, 0, 2), (t23, 1, 2)):
        np.multiply(phys[i], phys[j], out=t)
        t -= np.multiply(phys[3 + i], phys[3 + j], out=c1)
    np.multiply(u1, b2, out=c3)
    c3 -= np.multiply(u2, b1, out=c1)
    np.multiply(u3, b1, out=c2)
    c2 -= np.multiply(u1, b3, out=c1)
    np.multiply(u2, b3, out=c1)
    c1 -= np.multiply(u3, b2, out=b2)


def _tendency(hat: np.ndarray, ik: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite hat[0:6], the transformed products packed to the ball,
    with the tendency (-(i k_j T_ij + D), i k x (u x b)) and return that
    view; D only when ``hat`` holds it.  ``scratch`` holds two packed
    arrays.  P is left to the caller."""
    t11, t12, t13, t22, t23, c1, c2, c3 = hat[:8]
    ikx, iky, ikz = ik
    s, t_sum = scratch
    np.add(t11, t22, out=t_sum)  # -T33
    # Each component goes into the slot of an entry that no later one reads.
    for m, b, c in ((t11, t12, t13), (t12, t22, t23)):
        np.multiply(ikx, m, out=m)
        m += np.multiply(iky, b, out=s)
        m += np.multiply(ikz, c, out=s)
    np.multiply(ikx, t13, out=t13)
    t13 += np.multiply(iky, t23, out=s)
    t13 -= np.multiply(ikz, t_sum, out=t_sum)
    momentum = hat[0:3]
    if len(hat) > 8:
        momentum += hat[8:11]
    np.negative(momentum, out=momentum)  # exact: the sign of every term flips
    np.multiply(iky, c3, out=t22)
    t22 -= np.multiply(ikz, c2, out=s)
    np.multiply(ikz, c1, out=t23)
    t23 -= np.multiply(ikx, c3, out=s)
    np.multiply(iky, c1, out=s)
    np.multiply(ikx, c2, out=c1)
    c1 -= s
    return hat[:6]


def _rhs_core(
    w: np.ndarray,
    grid: GridSpec,
    damping: DampingSpec,
    want_dissipation: bool,
    work: Workspace,
) -> tuple[np.ndarray, float]:
    """Non-viscous tendency of the stacked coefficients w = (u, b) of an
    :class:`MhdState`, packed to the ball |k| < R: (6, M).  It holds the
    quadratic terms, in divergence form, and the damping, without the
    viscous term, which the integrator treats exactly through its
    integrating factor.

    Physical space is visited by :func:`mhddamp.fields.slab_pass` in
    ``work``, the stepper's :class:`Workspace`, with a body that writes a
    slab's products and damping into the slab the pass lends it and returns
    its dissipation partial.  Nothing of state size is allocated but the
    FFT kernel's forward output with one slab and the packed tendency, the
    first six rows of the forward's packed output.

    Returns (dw, damp_diss): the tendency, packed like ``w``, and the
    alpha-stripped damping dissipation integrand over the box:
    ||u||^(beta+1)_L^(beta+1) for power damping, || f(|u|^2) |u|^4 ||_L1
    for generalized damping, 0 otherwise.  Only computed when requested.
    """
    def body(x0, phys, prod):
        _products(phys, prod)
        if damping.kind == "none":
            return 0.0
        up, dmp = phys[0:3], prod[8:11]
        damping_term(up, damping, out=dmp)
        # <damping(u), u> by collocation quadrature, summed over the slabs;
        # einsum sums without a temporary and, unlike np.dot, without BLAS
        # threads
        return float(np.einsum("i,i->", dmp.ravel(), up.ravel())) if want_dissipation else 0.0

    hat, partials = slab_pass(w, grid, work, body, 8 if damping.kind == "none" else 11)
    damp_diss = 0.0
    for partial in partials:  # in slab order, the same sum on every Python
        damp_diss += partial
    if damp_diss:
        damp_diss *= grid.cell_volume / damping.alpha

    dw = _tendency(hat, work.ik, work.scratch)
    leray_project_coeffs(dw[0:3], grid)
    return dw, damp_diss
