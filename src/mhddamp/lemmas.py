"""
Standalone numerical verifiers for the scalar/vector inequalities that feed
the energy estimates: the sharp interpolation bound x^2 <= 2c + alpha x^(beta-1),
monotonicity of the damping nonlinearity, and the envelope conditions on the
damping modifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .damping import DampingSpec, F_CATALOG, damping_amplitude

MARGIN_TOL = 1e-12
# |margin at x*| is held to SHARPNESS_TOL * max(1, c): its roundoff grows with c.
SHARPNESS_TOL = 1e-10
PAIR_SCALE_RANGE = (1e-3, 1e3)


@dataclass
class CheckReport:
    """Outcome of one check: an inequality along a ledger, a lemma over
    sampled points, or an identity on one state.

    ``worst_time`` is the time of the smallest margin for checks along a
    trajectory and NaN otherwise; ``samples`` counts the points checked;
    ``extra`` holds a check's own figures (the sharp constant, the worst
    sample, both sides of an identity).
    """

    name: str
    status: str  # PASS | FAIL | NOT-APPLICABLE
    worst_margin: float = np.nan
    worst_time: float = np.nan
    tolerance: float = 0.0
    detail: str = ""
    samples: int = 0
    extra: dict = field(default_factory=dict)
    margins: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    @property
    def acceptable(self) -> bool:
        return self.status in ("PASS", "NOT-APPLICABLE")

    def summary_line(self) -> str:
        if self.status == "NOT-APPLICABLE":
            return f"NOT-APPLICABLE {self.name}: {self.detail}"
        return (
            f"{self.status} {self.name} worst_margin={self.worst_margin:.6e}"
            f" at t={self.worst_time:.6g} (tolerance {self.tolerance:.3e})"
        ) + (f": {self.detail}" if self.status == "FAIL" and self.detail else "")


def interpolation_constant(alpha: float, beta: float) -> float:
    """Sharp constant in x^2 <= 2 c + alpha x^(beta-1) over x >= 0.

        c = 1/2 * (beta-3)/(beta-1) * (alpha (beta-1) / 2)^(-2/(beta-3))

    Defined for alpha > 0, beta > 3 only.  OverflowError when c exceeds
    double range, as it does for beta close to 3 or a tiny alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if beta <= 3:
        raise ValueError("the interpolation constant requires beta > 3")
    base = alpha * (beta - 1.0) / 2.0
    return 0.5 * (beta - 3.0) / (beta - 1.0) * base ** (-2.0 / (beta - 3.0))


def interpolation_minimizer(alpha: float, beta: float) -> float:
    """Argmin x* = (2 / (alpha (beta-1)))^(1/(beta-3)) of the margin; the
    inequality holds with equality there."""
    if alpha <= 0 or beta <= 3:
        raise ValueError("requires alpha > 0 and beta > 3")
    return (2.0 / (alpha * (beta - 1.0))) ** (1.0 / (beta - 3.0))


def check_interpolation_bound(alpha: float, beta: float, x_grid: np.ndarray) -> CheckReport:
    """Margins of the interpolation bound over a grid, plus sharpness at x*.

    The margin at x* must vanish to SHARPNESS_TOL relative to max(1, c);
    ``worst_margin`` is the smaller of the grid's worst margin and that
    relative margin, while ``margin_at_x_star`` stays absolute.
    NOT-APPLICABLE for beta <= 3, when c, the margin at x* or a margin on
    the grid leaves double range, and when x* is not resolved in double
    precision: once (beta - 1) eps >= 1, the rounding of x* alone changes
    x*^(beta-1) by a relative amount of order one.
    """
    if beta <= 3:
        return CheckReport("lemma_interpolation", "NOT-APPLICABLE", detail="beta <= 3")
    x = np.asarray(x_grid, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("x_grid must lie in [0, inf)")
    try:
        c = interpolation_constant(alpha, beta)
        x_star = interpolation_minimizer(alpha, beta)
        margin_star = 2.0 * c + alpha * x_star ** (beta - 1.0) - x_star**2
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            margins = 2.0 * c + alpha * x ** (beta - 1.0) - x**2
    except OverflowError:
        margin_star = margins = math.nan
    if not (math.isfinite(margin_star) and np.isfinite(margins).all()):
        detail = f"c or a margin leaves double range (alpha={alpha!r}, beta={beta!r})"
        return CheckReport("lemma_interpolation", "NOT-APPLICABLE", detail=detail)
    if (beta - 1.0) * np.finfo(np.float64).eps >= 1.0:
        detail = f"x* is not resolved in double precision ((beta - 1) eps >= 1, beta={beta!r})"
        return CheckReport("lemma_interpolation", "NOT-APPLICABLE", detail=detail)
    i = int(np.argmin(margins))
    relative_star = margin_star / max(1.0, c)
    ok = margins[i] >= -MARGIN_TOL and abs(relative_star) <= SHARPNESS_TOL
    return CheckReport(
        "lemma_interpolation",
        "PASS" if ok else "FAIL",
        worst_margin=float(min(margins[i], relative_star)),
        samples=x.size,
        extra={
            "alpha": alpha,
            "beta": beta,
            "c": c,
            "x_at_worst": float(x[i]),
            "x_star": x_star,
            "margin_at_x_star": float(margin_star),
        },
    )


def monotonicity_gap(x: np.ndarray, y: np.ndarray, f_id: str) -> np.ndarray:
    """<f(|x|^2)|x|^2 x - f(|y|^2)|y|^2 y, x - y> over the last axis, for
    one vector pair or a stack of them, with f the catalog modifier
    ``f_id``; nonnegative for every strictly increasing f."""
    spec = DampingSpec("generalized", 1.0, f_id=f_id)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ax = damping_amplitude(np.sum(x * x, axis=-1), spec)[..., None]
    ay = damping_amplitude(np.sum(y * y, axis=-1), spec)[..., None]
    return np.sum((ax * x - ay * y) * (x - y), axis=-1)


def monotonicity_suite(f_id: str, n_pairs: int = 100_000, seed: int = 0) -> CheckReport:
    """Vectorized sampling of the monotonicity gap of the catalog modifier
    ``f_id`` over random vector pairs drawn at log-uniform scales in
    PAIR_SCALE_RANGE."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(PAIR_SCALE_RANGE[0]), np.log(PAIR_SCALE_RANGE[1])
    sx = np.exp(rng.uniform(lo, hi, size=n_pairs))
    sy = np.exp(rng.uniform(lo, hi, size=n_pairs))
    x = rng.standard_normal((n_pairs, 3)) * sx[:, None]
    y = rng.standard_normal((n_pairs, 3)) * sy[:, None]
    gaps = monotonicity_gap(x, y, f_id)
    i = int(np.argmin(gaps))
    return CheckReport(
        "lemma_monotonicity",
        "PASS" if gaps[i] >= -MARGIN_TOL else "FAIL",
        worst_margin=float(gaps[i]),
        samples=n_pairs,
        extra={"f_id": f_id, "worst_pair": (tuple(x[i]), tuple(y[i]))},
    )


@dataclass
class ModifierEnvelopeReport:
    """Tightest envelope constants of a damping modifier over a z-grid.

    The admissibility conditions ask for constants a, b > 0 with
    a z^2 <= f(z) <= b z^(beta-1) on z >= 1.  For the log catalog the lower
    ratio f(z)/z^2 tends to zero, so no positive a exists over unbounded
    ranges; this report states where the ratio degenerates instead of
    forcing a verdict.
    """

    f_id: str
    beta: float
    a_star: float        # min f(z)/z^2
    a_argmin: float
    b_star: float        # max f(z)/z^(beta-1)
    b_argmax: float
    f_at_zero: float
    lower_bound_degenerate: bool


def modifier_envelope_report(f_id: str, beta: float, z_grid: np.ndarray) -> ModifierEnvelopeReport:
    fn = F_CATALOG[f_id]
    z = np.asarray(z_grid, dtype=np.float64)
    if np.any(z < 1):
        raise ValueError("z_grid must lie in [1, inf)")
    fz = fn.f(z)
    lower_ratio = fz / z**2
    with np.errstate(over="ignore", divide="ignore"):  # z^(beta-1) out of double range
        upper_ratio = fz / z ** (beta - 1.0)
    ia = int(np.argmin(lower_ratio))
    ib = int(np.argmax(upper_ratio))
    a_star = float(lower_ratio[ia])
    return ModifierEnvelopeReport(
        f_id=f_id,
        beta=beta,
        a_star=a_star,
        a_argmin=float(z[ia]),
        b_star=float(upper_ratio[ib]),
        b_argmax=float(z[ib]),
        f_at_zero=fn.f_at_zero,
        lower_bound_degenerate=a_star < 1e-6,
    )
