"""
Velocity damping terms and the catalog of admissible modifier functions.

Two families are supported:

* power:        alpha |u|^(beta-1) u          (beta > 1)
* generalized:  alpha f(|u|^2) |u|^2 u        (f from the catalog)

Each cataloged f is strictly increasing on [0, inf) with a closed-form
derivative and a closed-form inverse on its range.  Note every cataloged f
has f(0) = 1, not 0; the extent to which the modifiers admit envelope
constants is reported by :func:`mhddamp.lemmas.modifier_envelope_report` rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import _is_number

E = float(np.e)
E_E = float(np.exp(np.e))        # e^e
E_E_E = float(np.exp(np.exp(np.e)))  # e^(e^e)


@dataclass(frozen=True)
class DampingFunction:
    """A damping modifier f with derivative and inverse."""

    f_id: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    f_inverse: Callable[[float], float]
    f_at_zero: float


def _log3_inverse(y: float) -> float:
    # e^(e^(e^y)) - e^(e^e); overflows to inf for moderate y, which is the
    # honest answer for the Gronwall rate in that regime.
    with np.errstate(over="ignore"):
        return float(np.exp(np.exp(np.exp(y))) - E_E_E)


F_CATALOG: dict[str, DampingFunction] = {
    "log1": DampingFunction(
        f_id="log1",
        f=lambda z: np.log(E + z),
        f_prime=lambda z: 1.0 / (E + z),
        f_inverse=lambda y: float(np.exp(y) - E),
        f_at_zero=1.0,
    ),
    "log2": DampingFunction(
        f_id="log2",
        f=lambda z: np.log(np.log(E_E + z)),
        f_prime=lambda z: 1.0 / ((E_E + z) * np.log(E_E + z)),
        f_inverse=lambda y: float(np.exp(np.exp(y)) - E_E),
        f_at_zero=1.0,
    ),
    "log3": DampingFunction(
        f_id="log3",
        f=lambda z: np.log(np.log(np.log(E_E_E + z))),
        f_prime=lambda z: 1.0 / ((E_E_E + z) * np.log(E_E_E + z) * np.log(np.log(E_E_E + z))),
        f_inverse=_log3_inverse,
        f_at_zero=1.0,
    ),
}

DAMPING_KINDS = ("none", "power", "generalized")


@dataclass(frozen=True)
class DampingSpec:
    """Which damping term is active, with its parameters."""

    kind: str = "none"
    alpha: float = 0.0
    beta: float | None = None
    f_id: str | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (_is_number(value) or (name == "beta" and value is None)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.kind not in DAMPING_KINDS:
            raise ValueError(f"unknown damping kind {self.kind!r}")
        if self.kind == "power":
            if self.alpha <= 0:
                raise ValueError("power damping requires alpha > 0")
            if self.beta is None or self.beta <= 1:
                raise ValueError("power damping requires beta > 1")
        elif self.kind == "generalized":
            if self.alpha <= 0:
                raise ValueError("generalized damping requires alpha > 0")
            if self.f_id not in F_CATALOG:
                raise ValueError(f"f_id must be one of {sorted(F_CATALOG)}, got {self.f_id!r}")
        else:
            if self.alpha != 0.0:
                raise ValueError("kind 'none' must have alpha = 0")

    @property
    def function(self) -> DampingFunction:
        if self.kind != "generalized":
            raise ValueError("no modifier function for kind " + self.kind)
        return F_CATALOG[self.f_id]  # type: ignore[index]


def speed_sq(values: np.ndarray) -> np.ndarray:
    """Pointwise squared magnitude |u(x)|^2 of a (3, ...) component stack."""
    return values[0] ** 2 + values[1] ** 2 + values[2] ** 2


def damping_amplitude(q: np.ndarray, spec: DampingSpec) -> np.ndarray:
    """Amplitude g(q) of the damping law D(u) = alpha g(|u|^2) u at q = |u|^2:
    q^((beta-1)/2) for power damping, f(q) q for generalized damping."""
    if spec.kind == "power":
        return q ** ((float(spec.beta) - 1.0) / 2.0)
    return spec.function.f(q) * q


def damping_power(values: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Pointwise alpha |u|^(beta-1) u on collocation values."""
    return damping_term(values, DampingSpec("power", alpha, beta))


def damping_generalized(values: np.ndarray, alpha: float, fn: DampingFunction | str) -> np.ndarray:
    """Pointwise alpha f(|u|^2) |u|^2 u on collocation values."""
    f_id = fn if isinstance(fn, str) else fn.f_id
    return damping_term(values, DampingSpec("generalized", alpha, f_id=f_id))


def damping_term(values: np.ndarray, spec: DampingSpec) -> np.ndarray:
    """Pointwise D(u) of the spec on collocation values; zero for kind 'none'."""
    if spec.kind == "none":
        return np.zeros_like(values)
    return (spec.alpha * damping_amplitude(speed_sq(values), spec)) * values
