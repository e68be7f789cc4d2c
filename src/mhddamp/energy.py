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
summed over the stored half spectrum with the grid's ``parseval_weight``;
damping integrands are evaluated on collocation points with quadrature
weight (2*pi/N)^3, so <D(u), u> / alpha matches the closed-form ``lbeta``
and ``d_f4`` columns to round-off.
"""

from __future__ import annotations

import csv

import numpy as np

from .damping import DampingFunction, DampingSpec, F_CATALOG, damping_amplitude, speed_sq
from .fields import SpectralVectorField, fft_grid, ifft_grid
from .grid import GridSpec
from .lemmas import CheckReport, interpolation_constant
from .operators import gradient_coeffs
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


def spectral_sums(w: np.ndarray, grid: GridSpec) -> tuple[float, float, float]:
    """(||w||^2, ||grad w||^2, ||Lap w||^2) in L2 of the pair w = (u, b),
    from its stacked coefficients; the integrator takes its stage integrands
    from here too."""
    mag = (w.real**2 + w.imag**2).sum(axis=0)
    s = grid.parseval_weight * mag
    grad = grid.k_sq * s
    lap = grid.k_sq * grad
    vol = grid.volume
    return vol * float(s.sum()), vol * float(grad.sum()), vol * float(lap.sum())


def _velocity_pointwise(u: SpectralVectorField):
    """Collocation data needed by the damping integrands.

    Returns (u_phys, grad_u_sq, q, grad_q_sq) where q = |u|^2 on the grid,
    grad_u_sq = sum_ij (d_j u_i)^2 and grad_q_sq = |grad q|^2 with grad q
    taken spectrally from the dealiased product q.
    """
    g = u.grid
    n = g.n_modes
    batch = np.empty((12,) + g.spectral_shape, dtype=np.complex128)
    batch[0:3] = u.coeffs
    gradient_coeffs(u.coeffs, g, batch[3:12])
    phys = ifft_grid(batch, n)
    up = phys[0:3]
    grad_u_sq = np.sum(phys[3:12] ** 2, axis=0)
    q = speed_sq(up)
    q_hat = fft_grid(q) * g.keep_mask
    gq = gradient_coeffs(q_hat[None], g, np.empty((3,) + g.spectral_shape, dtype=np.complex128))
    grad_q_sq = np.sum(ifft_grid(gq, n) ** 2, axis=0)
    return up, grad_u_sq, q, grad_q_sq


def _power_law(q: np.ndarray, exponent: float) -> np.ndarray:
    """q**exponent with the convention 0**negative = 0 (vanishing velocity)."""
    if exponent == 0.0:
        return np.ones_like(q)
    if exponent > 0:
        return q**exponent
    out = np.zeros_like(q)
    nz = q > 0
    out[nz] = q[nz] ** exponent
    return out


def ledger_row(state: MhdState, damping: DampingSpec) -> dict[str, float]:
    """Instantaneous ledger columns for one state."""
    row = dict.fromkeys(INSTANT_COLUMNS, 0.0)
    row["l2_sq"], row["h1dot_sq"], row["h2dot_sq"] = spectral_sums(state.coeffs, state.grid)
    if damping.kind == "none":
        return row

    w = state.grid.cell_volume
    up, grad_u_sq, q, grad_q_sq = _velocity_pointwise(state.u)
    if damping.kind == "power":
        beta = float(damping.beta)
        row["lbeta"] = float(np.sum(_power_law(q, (beta + 1.0) / 2.0))) * w
        row["d_beta_grad"] = float(np.sum(_power_law(q, (beta - 1.0) / 2.0) * grad_u_sq)) * w
        row["d_beta_sq"] = float(np.sum(_power_law(q, (beta - 3.0) / 2.0) * grad_q_sq)) * w
    else:
        fn = damping.function
        fq = fn.f(q)
        fpq = fn.f_prime(q)
        row["d_f4"] = float(np.sum(fq * q * q)) * w
        row["d_fprime"] = float(np.sum(fpq * q * grad_q_sq)) * w
        row["d_fprime_lit"] = float(np.sum(fpq * grad_q_sq)) * w
        row["d_f_gradsq"] = float(np.sum(fq * grad_q_sq)) * w
        row["d_f_grad"] = float(np.sum(fq * q * grad_u_sq)) * w
    return row


class EnergyLedger:
    """Time series of ledger rows plus run metadata."""

    def __init__(
        self,
        damping: DampingSpec,
        dt: float,
        steps_total: int,
        meta: dict | None = None,
    ) -> None:
        self.damping = damping
        self.dt = dt
        self.steps_total = steps_total
        self.meta = dict(meta or {})
        self.columns: dict[str, list[float]] = {name: [] for name in ALL_COLUMNS}

    def __len__(self) -> int:
        return len(self.columns["t"])

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=np.float64)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def append(
        self,
        t: float,
        instant: dict[str, float],
        exact_integrals: dict[str, float] | None = None,
    ) -> None:
        """Add one row; integral columns not supplied in ``exact_integrals``
        are advanced by the trapezoidal rule from the previous row."""
        exact = exact_integrals or {}
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

    @classmethod
    def from_csv(
        cls,
        path,
        damping: DampingSpec,
        dt: float,
        steps_total: int,
        meta: dict | None = None,
    ) -> "EnergyLedger":
        ledger = cls(damping, dt, steps_total, meta)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for record in reader:
                for name in ALL_COLUMNS:
                    ledger.columns[name].append(float(record[name]))
        return ledger


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


def l2_damping_integral(ledger: EnergyLedger) -> np.ndarray:
    """Running integral of the damping dissipation entering the L2 balance."""
    name = L2_DAMPING_COLUMN.get(ledger.damping.kind)
    return ledger.column("int_" + name) if name else np.zeros(len(ledger))


def check_L2_inequality(ledger: EnergyLedger, tol_step: float = 1e-9) -> CheckReport:
    """Residual of the L2 energy balance at every row.

    residual(t) = ||w0||^2 - [ ||w(t)||^2 + 2 int ||grad w||^2
                               + 2 alpha int (damping dissipation) ].
    For the exact flow the residual is identically zero with damping active
    or not; the discrete residual must stay above -tol_step * total steps.
    """
    t = ledger.times
    w0 = ledger.column("l2_sq")[0]
    residual = w0 - (
        ledger.column("l2_sq")
        + 2.0 * ledger.column("int_h1dot_sq")
        + 2.0 * ledger.damping.alpha * l2_damping_integral(ledger)
    )
    tol = tol_step * max(ledger.steps_total, 1)
    return _report("l2_energy", residual, t, tol)


def gronwall_rate(alpha: float, fn: DampingFunction | str) -> float:
    """Gronwall rate f^{-1}(1/(2 alpha)) of the generalized-damping H1 bound.

    When 1/(2 alpha) <= f(0) the damping dominates pointwise everywhere and
    no remainder term survives, so the rate is 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if isinstance(fn, str):
        fn = F_CATALOG[fn]
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


def check_H1_inequalities(ledger: EnergyLedger) -> list[CheckReport]:
    """Additive and exponential H1 bounds along the trajectory.

    Power damping with beta > 3:
      additive:    LHS(t) <= ||grad w0||^2 + c_{alpha,beta} ||w0||^2
      exponential: LHS(t) <= ||grad w0||^2 exp(2 c_{alpha,beta} t)
    Generalized damping:
      exponential: LHS(t) <= ||grad w0||^2 exp(gronwall_rate t)
    where LHS collects ||grad w(t)||^2, int ||Lap w||^2 and the damping
    dissipation integrals with their stated prefactors.
    """
    t = ledger.times
    damping = ledger.damping
    gradw0_sq = ledger.column("h1dot_sq")[0]
    reports: list[CheckReport] = []

    if damping.kind == "power":
        beta = float(damping.beta)
        if beta <= 3.0:
            detail = "interpolation constant undefined for beta <= 3"
            reports.append(CheckReport("h1_additive", "NOT-APPLICABLE", detail=detail))
            reports.append(CheckReport("h1_exponential", "NOT-APPLICABLE", detail=detail))
            return reports
        c = interpolation_constant(damping.alpha, beta)
        lhs = _h1_lhs(ledger)
        rhs_add = gradw0_sq + c * ledger.column("l2_sq")[0]
        rhs_exp = gradw0_sq * np.exp(2.0 * c * t)
        tol_add = 1e-12 * max(1.0, abs(rhs_add))
        tol_exp = 1e-12 * max(1.0, float(np.max(rhs_exp)))
        reports.append(_report("h1_additive", rhs_add - lhs, t, tol_add))
        reports.append(_report("h1_exponential", rhs_exp - lhs, t, tol_exp))
        return reports

    if damping.kind == "generalized":
        rate = gronwall_rate(damping.alpha, damping.function)
        lhs = _h1_lhs(ledger)
        with np.errstate(over="ignore"):
            rhs = gradw0_sq * np.exp(rate * t)
        detail = f"gronwall rate = {rate:.6g}"
        reports.append(
            CheckReport(
                "h1_additive",
                "NOT-APPLICABLE",
                detail="no additive bound stated for generalized damping",
            )
        )
        finite = np.isfinite(rhs)
        margins = np.where(finite, rhs - lhs, np.inf)
        tol = 1e-12 * max(1.0, float(np.max(rhs[finite])) if finite.any() else 1.0)
        rep = _report("h1_exponential", margins, t, tol, detail)
        reports.append(rep)
        return reports

    detail = "no damping active"
    reports.append(CheckReport("h1_additive", "NOT-APPLICABLE", detail=detail))
    reports.append(CheckReport("h1_exponential", "NOT-APPLICABLE", detail=detail))
    return reports


def check_damping_identity(
    state: MhdState, damping: DampingSpec, tol: float = 1e-6
) -> CheckReport:
    """Compare int grad(D(u)) : grad(u) against its pointwise decomposition.

    power (beta >= 3), D = |u|^(beta-1) u:
        rhs = d_beta_grad + (beta-1)/4 * d_beta_sq
    generalized, D = f(|u|^2) |u|^2 u:
        rhs = d_f_grad + 1/2 (d_fprime + d_f_gradsq)
    The left side differentiates the collocation samples of D spectrally, so
    agreement is limited by the spectral tail of D; band-limited smooth
    states keep the relative error within ``tol``.
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
    up = ifft_grid(state.u.coeffs, grid.n_modes)
    d_hat = fft_grid(damping_amplitude(speed_sq(up), damping) * up)
    # <grad D, grad u> = (2*pi)^3 sum |k|^2 Re(D(k) . conj(u(k))); the
    # coefficients of u vanish outside the ball so no explicit cutoff needed.
    weight = grid.parseval_weight * grid.k_sq
    lhs = grid.volume * float(
        np.sum(weight * np.sum((d_hat * np.conj(state.u.coeffs)).real, axis=0))
    )

    row = ledger_row(state, damping)
    if damping.kind == "power":
        rhs = row["d_beta_grad"] + (float(damping.beta) - 1.0) / 4.0 * row["d_beta_sq"]
    else:
        rhs = row["d_f_grad"] + 0.5 * (row["d_fprime"] + row["d_f_gradsq"])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return CheckReport(
        "damping_identity",
        "PASS" if rel <= tol else "FAIL",
        tolerance=tol,
        extra={"lhs": lhs, "rhs": rhs, "rel_error": rel},
    )
