"""
Twin-run experiments: evolve two nearby trajectories and measure the growth
of their L2 separation d(t) = ||w_A - w_B||^2 = ||u_A - u_B||^2 + ||b_A - b_B||^2.

The difference system is realized literally as the difference of two solver
trajectories advanced in lockstep, so no re-derivation of the coupled
difference equations is involved.  Two exponential rates are reported: the
least-squares slope of log d over the fit window, and the certified rate
max_t log(d(t)/d(0))/t for which d(t) <= d(0) exp(rate * t) holds on the
window by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .damping import DampingSpec, damping_term
from .fields import PhysicalVectorField
from .grid import GridSpec, _is_number
from .integrator import (
    BlowUpError,
    SolverConfig,
    _random_divfree_state,
    config_hash,
    make_initial_from_config,
    trajectory,
)
from .operators import sobolev_norm, weighted_sum_sq
from .state import MhdState

NOISE_SEED_OFFSET = 7919


@dataclass
class TwinRunResult:
    t: np.ndarray
    d: np.ndarray
    d0: float
    c_hat: float          # least-squares slope of log d over the fit window
    c_bound: float        # certified rate: max log(d/d0)/t over the window
    window_end: int       # index of the last row inside the fit window
    eps: float
    blown_up: bool
    config_hash: str
    identical: bool = False  # bitwise-equal trajectories (eps = 0 case)
    extra: dict = field(default_factory=dict)

    def bound_series(self) -> np.ndarray:
        if self.d0 == 0.0:
            return np.zeros_like(self.t)
        return self.d0 * np.exp(self.c_bound * self.t)

    def bound_satisfied(self, slack: float = 1e-6) -> bool:
        """d(t) <= d(0) exp(c_bound t) (1 + slack) over the fit window."""
        if self.d0 == 0.0:
            return bool(np.all(self.d == 0.0))
        window = slice(0, self.window_end + 1)
        return bool(np.all(self.d[window] <= self.bound_series()[window] * (1.0 + slack)))

    def to_csv(self, path) -> None:
        bound = self.bound_series()
        with open(path, "w", newline="") as fh:
            fh.write("t,d,bound\n")
            for i in range(self.t.size):
                fh.write(
                    f"{format(self.t[i], '.17g')},{format(self.d[i], '.17g')},"
                    f"{format(bound[i], '.17g')}\n"
                )

    def summary_dict(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "c_bound": self.c_bound,
            "d0": self.d0,
            "eps": self.eps,
            "blown_up": self.blown_up,
            "identical": self.identical,
            "config_hash": self.config_hash,
            "window_end_index": self.window_end,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _separation(w_a, w_b, grid: GridSpec) -> float:
    """d = ||w_a - w_b||^2 in L2 of the stacked pairs w = (u, b)."""
    return weighted_sum_sq(w_a - w_b, 1.0, grid)


def _fit_window(d: np.ndarray) -> int:
    """Last index of the fit window: from t = 0 to the first local maximum
    of d, or the end of the series when d never stops growing (or never
    grows at all)."""
    n = d.size
    if n <= 2 or d[1] < d[0]:
        return n - 1
    for i in range(1, n - 1):
        if d[i + 1] < d[i]:
            return i
    return n - 1


def _fit_rates(t: np.ndarray, d: np.ndarray, window_end: int) -> tuple[float, float]:
    window = slice(0, window_end + 1)
    tw = t[window]
    dw = d[window]
    positive = dw > 0
    if positive.sum() < 2:
        return 0.0, 0.0
    logd = np.log(dw[positive])
    slope, _ = np.polyfit(tw[positive], logd, 1)
    later = (tw > 0) & positive
    if later.any():
        c_bound = float(np.max((np.log(dw[later]) - np.log(dw[0])) / tw[later]))
    else:
        c_bound = 0.0
    return float(slope), c_bound


def twin_run(config: SolverConfig, perturbation_scale: float) -> TwinRunResult:
    """Evolve the configured state and an eps-perturbed copy in lockstep.

    With eps = 0 the copy is bit-identical by construction and d(t) must be
    identically zero.  Blow-up in either trajectory truncates the series at
    the last common recorded time and flags the result, which is then not
    ``identical``.
    """
    if not (_is_number(perturbation_scale) and perturbation_scale >= 0):
        raise ValueError(f"perturbation scale must be finite and >= 0, got {perturbation_scale}")
    eps = float(perturbation_scale)
    state = make_initial_from_config(config)
    twin = state
    if eps != 0.0:
        # divergence-free noise, each field scaled to unit H1 norm
        noise = _random_divfree_state(config.grid, config.seed + NOISE_SEED_OFFSET)
        for half in (noise.u, noise.b):
            half.coeffs /= sobolev_norm(half, 1.0)
        twin = MhdState(state.coeffs + eps * noise.coeffs, config.grid, state.t)

    times, seps = [], []
    blown = False
    pairs = zip(trajectory(state, config, False), trajectory(twin, config, False))
    try:
        for (t, w_a, _), (_, w_b, _) in pairs:
            times.append(t)
            seps.append(_separation(w_a, w_b, config.grid))
    except BlowUpError:
        blown = True

    t = np.asarray(times)
    d = np.asarray(seps)
    identical = bool(not blown and np.array_equal(w_a, w_b) and np.all(d == 0.0))
    window_end = _fit_window(d)
    c_hat, c_bound = _fit_rates(t, d, window_end)
    return TwinRunResult(
        t=t,
        d=d,
        d0=float(d[0]),
        c_hat=c_hat,
        c_bound=c_bound,
        window_end=window_end,
        eps=eps,
        blown_up=blown,
        config_hash=config_hash(config),
        identical=identical,
    )


def damping_contraction_pointwise(
    u_values: np.ndarray, s_values: np.ndarray, damping: DampingSpec
) -> np.ndarray:
    """Pointwise integrand <F(u) - F(s), u - s> on the collocation grid."""
    fu = damping_term(u_values, damping)
    fs = damping_term(s_values, damping)
    diff = u_values - s_values
    return np.sum((fu - fs) * diff, axis=0)


def damping_contraction_check(
    u_field: PhysicalVectorField, s_field: PhysicalVectorField, damping: DampingSpec
) -> float:
    """Quadrature of <F(u) - F(s), u - s> over the box.

    Nonnegative for both damping families (the damping map is monotone), so
    the difference-energy contribution of the damping term has a sign.
    """
    if u_field.grid.n_modes != s_field.grid.n_modes:
        raise ValueError("fields must share one grid")
    integrand = damping_contraction_pointwise(u_field.values, s_field.values, damping)
    return float(np.sum(integrand)) * u_field.grid.cell_volume
