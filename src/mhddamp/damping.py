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

from .grid import check_fields, leaf

E = float(np.e)
E_E = float(np.exp(np.e))        # e^e
E_E_E = float(np.exp(np.exp(np.e)))  # e^(e^e)


@dataclass(frozen=True)
class DampingFunction:
    """A damping modifier f with derivative and inverse."""

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
        f=lambda z: np.log(E + z),
        f_prime=lambda z: 1.0 / (E + z),
        f_inverse=lambda y: float(np.exp(y) - E),
        f_at_zero=1.0,
    ),
    "log2": DampingFunction(
        f=lambda z: np.log(np.log(E_E + z)),
        f_prime=lambda z: 1.0 / ((E_E + z) * np.log(E_E + z)),
        f_inverse=lambda y: float(np.exp(np.exp(y)) - E_E),
        f_at_zero=1.0,
    ),
    "log3": DampingFunction(
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

    kind: str = leaf("name", choices=DAMPING_KINDS, default="none")
    alpha: float = leaf("real", default=0.0)
    beta: float | None = leaf("real", default=None)
    f_id: str | None = None  # checked by the generalized rule only

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "none" and self.alpha != 0.0:
            raise ValueError("kind 'none' must have alpha = 0")
        if self.kind != "none" and self.alpha <= 0:
            raise ValueError(f"{self.kind} damping requires alpha > 0")
        if self.kind == "power" and (self.beta is None or self.beta <= 1):
            raise ValueError("power damping requires beta > 1")
        if self.kind == "generalized" and self.f_id not in F_CATALOG:
            raise ValueError(f"f_id must be one of {sorted(F_CATALOG)}, got {self.f_id!r}")

    @property
    def function(self) -> DampingFunction:
        if self.kind != "generalized":
            raise ValueError("no modifier function for kind " + self.kind)
        return F_CATALOG[self.f_id]  # type: ignore[index]


def speed_sq(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise sum of squares of the components of a (m, ...) stack, added
    in component order: |u(x)|^2 for a vector field.  Written into ``out``
    when given."""
    out = np.multiply(values[0], values[0], out=out)
    tmp = np.empty_like(out)
    for v in values[1:]:
        out += np.multiply(v, v, out=tmp)
    return out


def damping_amplitude(q: np.ndarray, spec: DampingSpec) -> np.ndarray:
    """Amplitude g(q) of the damping law D(u) = alpha g(|u|^2) u at q = |u|^2:
    q^((beta-1)/2) for power damping, f(q) q for generalized damping."""
    if spec.kind == "power":
        return q ** ((float(spec.beta) - 1.0) / 2.0)
    return spec.function.f(q) * q


def damping_term(values: np.ndarray, spec: DampingSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise D(u) of a power or generalized spec on collocation
    values.  Written into ``out`` when given."""
    amplitude = damping_amplitude(speed_sq(values), spec)
    amplitude *= spec.alpha
    return np.multiply(amplitude, values, out=out)
