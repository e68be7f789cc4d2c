"""
Twin-run experiments: evolve two nearby trajectories and measure the growth
of their L2 separation d(t) = ||w_A - w_B||^2 = ||u_A - u_B||^2 + ||b_A - b_B||^2.

The difference system is realized literally as the difference of two solver
trajectories advanced in lockstep, so no re-derivation of the coupled
difference equations is involved.  Two exponential rates are reported: the
least-squares slope of log d over the fit window, and the certified rate
max_t log(d(t)/d(t0))/(t - t0) for which d(t) <= d(t0) exp(rate (t - t0))
holds on the window by construction, with t0 the start time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, Leaf, check_leaf
from .integrator import (
    BlowUpError,
    SolverConfig,
    _StepWork,
    _random_divfree_state,
    config_hash,
    make_initial_from_config,
    trajectory,
)
from .operators import sobolev_norm, weighted_sum_sq
from .state import MhdState

NOISE_SEED_OFFSET = 7919
# The noise halves have unit H1 norm, so d0 <= 2 eps^2 is finite up to the bound.
PERTURBATION_SCALE = Leaf("real", ge=0, le=float(np.sqrt(np.finfo(np.float64).max / 2)))
BOUND_SLACK = 1e-6


@dataclass
class TwinRunResult:
    t: np.ndarray
    d: np.ndarray
    d0: float
    c_hat: float          # least-squares slope of log d over the fit window
    c_bound: float        # certified rate: max log(d/d0)/(t - t0) over the window
    window_end: int       # index of the last row inside the fit window
    eps: float
    blown_up: bool
    config_hash: str
    identical: bool = False  # A and B bitwise equal at every sample (eps = 0 case)
    reproducible: bool = False  # A' bitwise equal to A at every sample

    def bound_series(self) -> np.ndarray:
        if self.d0 == 0.0:
            return np.zeros_like(self.t)
        return self.d0 * np.exp(self.c_bound * (self.t - self.t[0]))

    def bound_satisfied(self) -> bool:
        """d(t) <= d(t0) exp(c_bound (t - t0)) (1 + BOUND_SLACK) over the
        fit window."""
        if self.d0 == 0.0:
            return bool(np.all(self.d == 0.0))
        window = slice(0, self.window_end + 1)
        return bool(np.all(self.d[window] <= self.bound_series()[window] * (1.0 + BOUND_SLACK)))

    def to_csv(self, path) -> None:
        bound = self.bound_series()
        with open(path, "w", newline="") as fh:
            fh.write("t,d,bound\n")
            for i in range(self.t.size):
                fh.write(
                    f"{format(self.t[i], '.17g')},{format(self.d[i], '.17g')},"
                    f"{format(bound[i], '.17g')}\n"
                )

    def summary(self) -> dict:
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


def _separation(w_a, w_b, grid: GridSpec) -> float:
    """d = ||w_a - w_b||^2 in L2 of the stacked pairs w = (u, b)."""
    return weighted_sum_sq(w_a - w_b, 1.0, grid)


def _fit_window(d: np.ndarray) -> int:
    """Last index of the fit window: from the start to the first local maximum
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
    tw = t[window] - t[0]  # elapsed time
    dw = d[window]
    positive = dw > 0
    if positive.sum() < 2:
        return 0.0, 0.0
    logd = np.log(dw[positive])
    # fitted on time scaled by a power of two near the span, which is exact:
    # the squares of tiny times would fall into subnormals
    e = np.frexp(tw[-1])[1]
    slope, _ = np.polyfit(np.ldexp(tw[positive], -e), logd, 1)
    slope = np.ldexp(slope, -e)
    later = (tw > 0) & positive
    if later.any():
        c_bound = float(np.max((np.log(dw[later]) - np.log(dw[0])) / tw[later]))
    else:
        c_bound = 0.0
    return float(slope), c_bound


def twin_run(config: SolverConfig, perturbation_scale: float) -> TwinRunResult:
    """Evolve the configured state A, its replay A' and an eps-perturbed
    copy B in lockstep on one shared stepper; with eps = 0, B is A' and
    d(t) must be identically zero.  A' must equal A bitwise at every sample
    (``reproducible``): a step that read what another trajectory left in
    the stepper would break it.  Blow-up in any trajectory truncates the
    series at the last common recorded time and flags the result, which is
    then not ``identical``.
    """
    check_leaf(perturbation_scale, PERTURBATION_SCALE, "perturbation_scale")
    eps = float(perturbation_scale)
    state = make_initial_from_config(config)
    starts = [state, state]
    if eps != 0.0:
        # divergence-free noise, each field scaled to unit H1 norm
        noise = _random_divfree_state(config.grid, config.seed + NOISE_SEED_OFFSET)
        for half in (noise.u, noise.b):
            half /= sobolev_norm(half, config.grid, 1.0)
        starts.append(MhdState(state.coeffs + eps * noise.coeffs, config.grid, state.t))
        del noise
    stepper = _StepWork(config)
    runs = [trajectory(start, config, False, work=stepper) for start in starts]
    del state, starts

    times, seps = [], []
    reproducible = identical = True
    blown = False
    try:
        for samples in zip(*runs):
            (t, w_a, _), (_, w_r, _), (_, w_b, _) = samples[0], samples[1], samples[-1]
            reproducible = reproducible and np.array_equal(w_a, w_r)
            identical = identical and np.array_equal(w_a, w_b)
            times.append(t)
            seps.append(_separation(w_a, w_b, config.grid))
            # dropped before the next steps, which allocate the new samples
            del samples, w_a, w_r, w_b
    except BlowUpError:
        blown = True

    t = np.asarray(times)
    d = np.asarray(seps)
    identical = identical and not blown
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
        reproducible=reproducible,
    )
