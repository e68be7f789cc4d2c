"""Pseudo-spectral damped-MHD solver and energy-estimate verification harness."""

__version__ = "0.1.0"

from .damping import DampingSpec, F_CATALOG, damping_generalized, damping_power
from .fields import (
    PhysicalVectorField,
    SpectralVectorField,
    forward_transform,
    inverse_transform,
)
from .grid import GridSpec
from .integrator import (
    BlowUpError,
    InitialCondition,
    SolverConfig,
    load_checkpoint,
    make_initial,
    run,
    save_checkpoint,
)
from .energy import (
    EnergyLedger,
    gronwall_rate,
    check_damping_identity,
    check_H1_inequalities,
    check_L2_inequality,
    ledger_row,
)
from .lemmas import (
    CheckReport,
    interpolation_constant,
    check_interpolation_bound,
    gronwall_check,
    modifier_envelope_report,
    monotonicity_gap,
)
from .nonlinear import convection, rhs_mhd
from .operators import (
    friedrichs_truncate,
    gradient,
    divergence,
    laplacian,
    leray_project,
    sobolev_norm,
)
from .state import MhdState
from .uniqueness import TwinRunResult, damping_contraction_check, twin_run

__all__ = [
    "BlowUpError",
    "CheckReport",
    "DampingSpec",
    "EnergyLedger",
    "F_CATALOG",
    "GridSpec",
    "InitialCondition",
    "MhdState",
    "PhysicalVectorField",
    "SolverConfig",
    "SpectralVectorField",
    "TwinRunResult",
    "gronwall_rate",
    "interpolation_constant",
    "check_H1_inequalities",
    "check_L2_inequality",
    "check_damping_identity",
    "check_interpolation_bound",
    "convection",
    "damping_contraction_check",
    "damping_generalized",
    "damping_power",
    "divergence",
    "forward_transform",
    "friedrichs_truncate",
    "gradient",
    "gronwall_check",
    "modifier_envelope_report",
    "inverse_transform",
    "laplacian",
    "ledger_row",
    "leray_project",
    "load_checkpoint",
    "make_initial",
    "monotonicity_gap",
    "rhs_mhd",
    "run",
    "save_checkpoint",
    "sobolev_norm",
    "twin_run",
]
