"""Pseudo-spectral damped-MHD solver and energy-estimate verification harness."""

__version__ = "0.1.0"

from .damping import DampingSpec, F_CATALOG
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
    modifier_envelope_report,
)
from .operators import sobolev_norm
from .state import MhdState
from .uniqueness import TwinRunResult, twin_run

__all__ = [
    "BlowUpError",
    "CheckReport",
    "DampingSpec",
    "EnergyLedger",
    "F_CATALOG",
    "GridSpec",
    "InitialCondition",
    "MhdState",
    "SolverConfig",
    "TwinRunResult",
    "gronwall_rate",
    "interpolation_constant",
    "check_H1_inequalities",
    "check_L2_inequality",
    "check_damping_identity",
    "check_interpolation_bound",
    "modifier_envelope_report",
    "ledger_row",
    "load_checkpoint",
    "make_initial",
    "run",
    "save_checkpoint",
    "sobolev_norm",
    "twin_run",
]
