"""
Energy ledger and inequality checks along discrete trajectories.

A ledger row records, at one sampled time, every norm and damping
dissipation integrand appearing in the solver's a priori energy estimates,
together with running time-integrals of the dissipation columns.  Three of
those running integrals (int_h1dot_sq, int_h2dot_sq and the damping column
named by ``L2_DAMPING_COLUMN``) are accumulated by the integrator with the
same fourth-order stage weights as the state itself, from the same
:func:`spectral_sums` the rows use; the remaining columns are integrated by
the trapezoidal rule over ledger rows.

Norm convention: for coefficients c(k), ||f||_L2^2 = (2*pi)^3 sum |c(k)|^2,
summed over the packed ball modes with the grid's ``parseval_weight``;
damping integrands are evaluated on collocation points with quadrature
weight (2*pi/N)^3, so <D(u), u> / alpha matches the closed-form ``lbeta``
and ``d_f4`` columns to round-off.
"""

from __future__ import annotations

import numpy as np

from .damping import DampingSpec, F_CATALOG, damping_amplitude, speed_sq
from .fields import slab_pass
from .grid import GridSpec
from .lemmas import CheckReport, interpolation_constant
from .nonlinear import Workspace
from .state import MhdState

INSTANT_COLUMNS = (
    "l2_sq",        # ||w||_L2^2
    "h1dot_sq",     # ||grad w||_L2^2
    "h2dot_sq",     # ||Lap w||_L2^2
    "lbeta",        # ||u||^(beta+1)_L^(beta+1)
    "d_beta_grad",  # || |u|^(beta-1) |grad u|^2 ||_L1
    "d_beta_sq",    # || |u|^(beta-3) |grad |u|^2|^2 ||_L1
    "d_f4",         # || f(|u|^2) |u|^4 ||_L1
    "d_fprime",     # || f'(|u|^2) |u|^2 |grad |u|^2|^2 ||_L1  (chain-rule weight)
    "d_fprime_lit", # || f'(|u|^2) |grad |u|^2|^2 ||_L1        (literal variant)
    "d_f_gradsq",   # || f(|u|^2) |grad |u|^2|^2 ||_L1
    "d_f_grad",     # || f(|u|^2) |u|^2 |grad u|^2 ||_L1
)
DISSIPATION_COLUMNS = INSTANT_COLUMNS[1:]
INTEGRAL_COLUMNS = tuple("int_" + c for c in DISSIPATION_COLUMNS)
ALL_COLUMNS = ("t",) + INSTANT_COLUMNS + INTEGRAL_COLUMNS


# The damping column whose running integral enters the L2 energy balance.
L2_DAMPING_COLUMN = {"power": "lbeta", "generalized": "d_f4"}
L2_STEP_TOL = 1e-9
DAMPING_IDENTITY_TOL = 1e-6


def spectral_sums(w: np.ndarray, grid: GridSpec) -> tuple[float, float, float]:
    """(||w||^2, ||grad w||^2, ||Lap w||^2) in L2 of the pair w = (u, b),
    from its stacked (6, M) coefficients; the integrator takes its stage
    integrands from here too."""
    mag = np.zeros(w.shape[1:])
    re2, im2 = np.empty_like(mag), np.empty_like(mag)
    for c in w:
        np.multiply(c.real, c.real, out=re2)
        re2 += np.multiply(c.imag, c.imag, out=im2)
        mag += re2
    sums = []
    for weight in (grid.parseval_weight, grid.k_sq, grid.k_sq):
        mag *= weight
        sums.append(grid.volume * float(mag.sum()))
    return tuple(sums)


def _velocity_squares(u: np.ndarray, grid: GridSpec, work: Workspace, body) -> list:
    """Collocation data needed by the damping integrands, from the packed
    (3, M) coefficients ``u`` of the velocity: returns, per slab of
    x-planes in slab order, body(q, grad_u_sq, grad_q_sq) where q = |u|^2,
    grad_u_sq = sum_ij (d_j u_i)^2 and grad_q_sq = |grad q|^2 with grad q
    taken spectrally from the dealiased product q.  Only q and grad_u_sq
    are built at full size.  ``work``, a :class:`mhddamp.nonlinear.Workspace`
    of the grid that is idle between steps, lends its transform buffers,
    multipliers i k and slab width, and its ``stage`` array holds the batch.
    """
    ik, batch = work.ik, work.stage
    q, grad_u_sq = np.empty(grid.shape), np.empty(grid.shape)

    def squares(x0, phys, out):
        planes = slice(x0, x0 + phys.shape[-3])
        q[planes] = speed_sq(phys[0:3], out=out[0])
        speed_sq(phys[3:6], out=grad_u_sq[planes])

    def add_squares(x0, phys, out):
        acc = grad_u_sq[x0 : x0 + phys.shape[-3]]
        for d in phys:
            acc += np.multiply(d, d, out=d)

    def grad_q(x0, phys, out):
        # the gradient's three grids are freed before the integrands allocate
        planes = slice(x0, x0 + phys.shape[-3])
        grad_q_sq = speed_sq(phys)
        del phys
        return body(q[planes], grad_u_sq[planes], grad_q_sq)

    # u with d_j u_1, then d_j u_2 with d_j u_3: the squares of the
    # gradient add up in the order i, j of d_j u_i.
    batch[0:3] = u
    np.multiply(ik, u[0], out=batch[3:6])
    q_hat = slab_pass(batch, grid, work, squares, 1)[0][0]
    np.multiply(ik, u[1], out=batch[0:3])
    np.multiply(ik, u[2], out=batch[3:6])
    slab_pass(batch, grid, work, add_squares)
    np.multiply(ik, q_hat, out=batch[0:3])
    del q_hat
    return slab_pass(batch[0:3], grid, work, grad_q)[1]


def _power_law(q: np.ndarray, exponent: float) -> np.ndarray:
    """q**exponent with the convention 0**negative = 0 (vanishing velocity)."""
    if exponent >= 0:
        return q**exponent
    out = np.zeros_like(q)
    nz = q > 0
    out[nz] = q[nz] ** exponent
    return out


@np.errstate(over="ignore", invalid="ignore")
def ledger_row(state: MhdState, damping: DampingSpec, work=None) -> dict[str, float]:
    """Instantaneous ledger columns for one state.  ``work`` may lend the
    idle :class:`mhddamp.nonlinear.Workspace` of the trajectory that
    yielded the state, whose ``stage``, ``columns`` and ``products`` the
    row overwrites; without it the row makes its own.  The damping
    integrands are summed per slab of x-planes, the slabs' sums added from
    0 in slab order, and scaled by the cell volume once."""
    row = dict.fromkeys(INSTANT_COLUMNS, 0.0)
    row["l2_sq"], row["h1dot_sq"], row["h2dot_sq"] = spectral_sums(state.coeffs, state.grid)
    if damping.kind == "none":
        return row

    def sums(q, grad_u_sq, grad_q_sq):
        if damping.kind == "power":
            beta = float(damping.beta)
            return {"lbeta": np.sum(_power_law(q, (beta + 1.0) / 2.0)),
                    "d_beta_grad": np.sum(_power_law(q, (beta - 1.0) / 2.0) * grad_u_sq),
                    "d_beta_sq": np.sum(_power_law(q, (beta - 3.0) / 2.0) * grad_q_sq)}
        fq, fpq = damping.function.f(q), damping.function.f_prime(q)
        fq_q = fq * q
        return {"d_f_grad": np.sum(fq_q * grad_u_sq), "d_f4": np.sum(fq_q * q),
                "d_f_gradsq": np.sum(fq * grad_q_sq), "d_fprime_lit": np.sum(fpq * grad_q_sq),
                "d_fprime": np.sum(fpq * q * grad_q_sq)}

    for slab in _velocity_squares(state.u, state.grid, work or Workspace(state.grid), sums):
        for name, value in slab.items():  # from 0.0, in slab order
            row[name] += float(value)
    for name in INSTANT_COLUMNS[3:]:  # the collocation quadratures, from lbeta on
        row[name] *= state.grid.cell_volume
    return row


class EnergyLedger:
    """Time series of ledger rows, with the hash of the configuration that
    made them and its viscosities (nu_h, nu_v)."""

    def __init__(self, damping: DampingSpec, steps_total: int, config_hash: str,
                 viscosity: tuple[float, float]) -> None:
        self.damping = damping
        self.steps_total = steps_total
        self.config_hash = config_hash
        self.viscosity = viscosity
        self.columns: dict[str, list[float]] = {name: [] for name in ALL_COLUMNS}

    def __len__(self) -> int:
        return len(self.columns["t"])

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=np.float64)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def append(self, t: float, instant: dict[str, float], integrals) -> None:
        """Add one row.  ``integrals`` is a trajectory's stage-weighted
        (int ||grad w||^2, int ||Lap w||^2, int damping dissipation); the
        last fills the column named by ``L2_DAMPING_COLUMN``, if any.  The
        other integral columns advance by the trapezoidal rule."""
        damp = L2_DAMPING_COLUMN.get(self.damping.kind)
        names = ("int_h1dot_sq", "int_h2dot_sq") + (("int_" + damp,) if damp else ())
        exact = dict(zip(names, integrals))
        first = len(self) == 0
        self.columns["t"].append(float(t))
        for name in INSTANT_COLUMNS:
            self.columns[name].append(float(instant[name]))
        for name in DISSIPATION_COLUMNS:
            key = "int_" + name
            if key in exact:
                value = float(exact[key])
            elif first:
                value = 0.0
            else:
                dt_row = t - self.columns["t"][-2]
                prev = self.columns[name][-2]
                value = self.columns[key][-1] + 0.5 * (prev + instant[name]) * dt_row
            self.columns[key].append(value)

    def validate(self) -> None:
        """Check entry nonnegativity and monotone running integrals."""
        for name in INSTANT_COLUMNS + INTEGRAL_COLUMNS:
            col = self.column(name)
            if col.size and float(col.min()) < 0.0:
                raise ValueError(f"negative entry in ledger column {name}")
        for name in INTEGRAL_COLUMNS:
            col = self.column(name)
            if col.size > 1 and float(np.min(np.diff(col))) < -1e-15:
                raise ValueError(f"running integral {name} is not non-decreasing")

    # Serialization --------------------------------------------------------

    def to_csv_string(self) -> str:
        lines = [",".join(ALL_COLUMNS)]
        n = len(self)
        cols = [self.columns[name] for name in ALL_COLUMNS]
        for i in range(n):
            lines.append(",".join(format(col[i], ".17g") for col in cols))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())


def _report(name: str, margins: np.ndarray, times: np.ndarray, tol: float, detail: str = "") -> CheckReport:
    i = int(np.argmin(margins))
    status = "PASS" if margins[i] >= -tol else "FAIL"
    return CheckReport(
        name=name,
        status=status,
        worst_margin=float(margins[i]),
        worst_time=float(times[i]),
        tolerance=tol,
        detail=detail,
        margins=margins,
    )


def _non_unit_viscosity(ledger: EnergyLedger) -> str:
    """Why the energy estimates do not apply to the ledger, or "": they are
    derived for nu_h = nu_v = 1."""
    nu_h, nu_v = ledger.viscosity
    if nu_h == nu_v == 1.0:
        return ""
    return f"estimates derived for unit viscosity, got nu_h={nu_h:g} nu_v={nu_v:g}"


def check_L2_inequality(ledger: EnergyLedger) -> CheckReport:
    """Residual of the L2 energy balance at every row.

    residual(t) = ||w0||^2 - [ ||w(t)||^2 + 2 int ||grad w||^2
                               + 2 alpha int (damping dissipation) ].
    For the exact flow the residual is identically zero with damping active
    or not; the discrete residual must stay above -L2_STEP_TOL * total steps.
    NOT-APPLICABLE unless the viscosities are 1.
    """
    if detail := _non_unit_viscosity(ledger):
        return CheckReport("l2_energy", "NOT-APPLICABLE", detail=detail)
    t = ledger.times
    w0 = ledger.column("l2_sq")[0]
    damp = L2_DAMPING_COLUMN.get(ledger.damping.kind)
    int_damp = ledger.column("int_" + damp) if damp else np.zeros(len(ledger))
    residual = w0 - (
        ledger.column("l2_sq")
        + 2.0 * ledger.column("int_h1dot_sq")
        + 2.0 * ledger.damping.alpha * int_damp
    )
    tol = L2_STEP_TOL * max(ledger.steps_total, 1)
    return _report("l2_energy", residual, t, tol)


def gronwall_rate(alpha: float, f_id: str) -> float:
    """Gronwall rate f^{-1}(1/(2 alpha)) of the generalized-damping H1 bound,
    with f the catalog modifier ``f_id``.

    When 1/(2 alpha) <= f(0) the damping dominates pointwise everywhere and
    no remainder term survives, so the rate is 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    fn = F_CATALOG[f_id]
    y = 1.0 / (2.0 * alpha)
    if y <= fn.f_at_zero:
        return 0.0
    with np.errstate(over="ignore"):
        # inf is the honest rate when the inverse leaves double range
        return float(fn.f_inverse(y))


def _h1_lhs(ledger: EnergyLedger) -> np.ndarray:
    """LHS profile of the H1 estimates with the stated prefactors."""
    damping = ledger.damping
    alpha = damping.alpha
    lhs = ledger.column("h1dot_sq") + ledger.column("int_h2dot_sq")
    if damping.kind == "power":
        beta = float(damping.beta)
        lhs = lhs + alpha * (beta - 1.0) / 2.0 * ledger.column("int_d_beta_sq")
        lhs = lhs + alpha * ledger.column("int_d_beta_grad")
    elif damping.kind == "generalized":
        lhs = lhs + alpha * ledger.column("int_d_fprime")
        lhs = lhs + alpha * ledger.column("int_d_f_gradsq")
        lhs = lhs + 2.0 * alpha * ledger.column("int_d_f_grad")
    return lhs


def _exponential_report(ledger: EnergyLedger, rate: float, detail: str = "") -> CheckReport:
    """h1_exponential: LHS(t) <= ||grad w0||^2 exp(rate (t - t0)) at every
    row, with t0 the time of the first row.  Rows where the bound is not
    finite (beyond double range, or inf * 0 at t = t0 for an infinite rate)
    hold trivially."""
    t = ledger.times
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = ledger.column("h1dot_sq")[0] * np.exp(rate * (t - t[0]))
    finite = np.isfinite(rhs)
    margins = np.where(finite, rhs - _h1_lhs(ledger), np.inf)
    tol = 1e-12 * max(1.0, float(np.max(rhs[finite])) if finite.any() else 1.0)
    return _report("h1_exponential", margins, t, tol, detail)


def check_H1_inequalities(ledger: EnergyLedger) -> list[CheckReport]:
    """Additive and exponential H1 bounds along the trajectory.

    Power damping with beta > 3:
      additive:    LHS(t) <= ||grad w0||^2 + c_{alpha,beta} ||w0||^2
      exponential: LHS(t) <= ||grad w0||^2 exp(2 c_{alpha,beta} (t - t0))
    Generalized damping:
      exponential: LHS(t) <= ||grad w0||^2 exp(gronwall_rate (t - t0))
    where w0 is the state at the first row, at time t0, and LHS collects
    ||grad w(t)||^2, int ||Lap w||^2 and the damping dissipation integrals
    with their stated prefactors.  Both power bounds
    are NOT-APPLICABLE when c_{alpha,beta} leaves double range, and both
    bounds unless the viscosities are 1.
    """
    t = ledger.times
    damping = ledger.damping
    gradw0_sq = ledger.column("h1dot_sq")[0]

    def not_applicable(detail):
        return [
            CheckReport("h1_additive", "NOT-APPLICABLE", detail=detail),
            CheckReport("h1_exponential", "NOT-APPLICABLE", detail=detail),
        ]

    if detail := _non_unit_viscosity(ledger):
        return not_applicable(detail)
    if damping.kind == "power":
        beta = float(damping.beta)
        if beta <= 3.0:
            return not_applicable("interpolation constant undefined for beta <= 3")
        try:
            c = interpolation_constant(damping.alpha, beta)
        except OverflowError:
            return not_applicable(
                f"interpolation constant out of double range "
                f"(alpha={damping.alpha!r}, beta={beta!r})"
            )
        rhs_add = gradw0_sq + c * ledger.column("l2_sq")[0]
        tol_add = 1e-12 * max(1.0, abs(rhs_add))
        return [
            _report("h1_additive", rhs_add - _h1_lhs(ledger), t, tol_add),
            _exponential_report(ledger, 2.0 * c),
        ]

    if damping.kind == "generalized":
        rate = gronwall_rate(damping.alpha, damping.f_id)
        detail = "no additive bound stated for generalized damping"
        return [
            CheckReport("h1_additive", "NOT-APPLICABLE", detail=detail),
            _exponential_report(ledger, rate, f"gronwall rate = {rate:.6g}"),
        ]

    return not_applicable("no damping active")


def check_damping_identity(state: MhdState, damping: DampingSpec) -> CheckReport:
    """Compare int grad(D(u)) : grad(u) against its pointwise decomposition.

    power (beta >= 3), D = |u|^(beta-1) u:
        rhs = d_beta_grad + (beta-1)/4 * d_beta_sq
    generalized, D = f(|u|^2) |u|^2 u:
        rhs = d_f_grad + 1/2 (d_fprime + d_f_gradsq)
    The left side differentiates the collocation samples of D spectrally, so
    agreement is limited by the spectral tail of D; band-limited smooth
    states keep the relative error within DAMPING_IDENTITY_TOL.
    """
    if damping.kind == "none":
        return CheckReport("damping_identity", "NOT-APPLICABLE", detail="no damping active")
    if damping.kind == "power" and float(damping.beta) < 3.0:
        return CheckReport(
            "damping_identity",
            "NOT-APPLICABLE",
            detail="negative exponent at zeros of u for beta < 3",
        )

    grid = state.grid
    work = Workspace(grid)
    d_hat, _ = slab_pass(
        state.u, grid, work,
        lambda x0, up, out: np.multiply(damping_amplitude(speed_sq(up), damping), up, out=out), 3,
    )
    # <grad D, grad u> = (2*pi)^3 sum |k|^2 Re(D(k) . conj(u(k))); u has no
    # mode outside the ball, so D's modes there add no term.
    weight = grid.parseval_weight * grid.k_sq
    lhs = grid.volume * float(
        np.sum(weight * np.sum((d_hat * np.conj(state.u)).real, axis=0))
    )

    row = ledger_row(state, damping, work)
    if damping.kind == "power":
        rhs = row["d_beta_grad"] + (float(damping.beta) - 1.0) / 4.0 * row["d_beta_sq"]
    else:
        rhs = row["d_f_grad"] + 0.5 * (row["d_fprime"] + row["d_f_gradsq"])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return CheckReport(
        "damping_identity",
        "PASS" if rel <= DAMPING_IDENTITY_TOL else "FAIL",
        tolerance=DAMPING_IDENTITY_TOL,
        extra={"lhs": lhs, "rhs": rhs, "rel_error": rel},
    )
