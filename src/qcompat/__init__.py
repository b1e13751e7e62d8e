"""Numerical compatibility checks for quantum observables, channels, and
instruments.

Devices are represented by effect lists (observables) or Choi matrices
(channels and the branches of instruments).  Whether two devices admit a
joint implementation is decided by a convex-feasibility solver; the answer
comes back with numeric witnesses and residuals rather than a bare boolean.
"""

from .devices import (
    Instrument,
    InvariantViolation,
    Observable,
    QuantumChannel,
    apply_channel,
    choi_of_map,
    compose_instrument_channel,
    dual_apply,
    induced_observable,
    luders_instrument,
    total_channel,
)
from .feasibility import FeasibilityVerdict, SolverConfig, Status, dykstra_solve, robustness_bisect
from .compatibility import (
    CompatReport,
    check_chan_chan,
    check_obs_chan,
    check_obs_obs,
    check_parallel,
    check_redefined,
    check_traditional,
    check_weak,
    marginal_instrument,
    parallel_composition,
)

__all__ = [
    "CompatReport",
    "FeasibilityVerdict",
    "Instrument",
    "InvariantViolation",
    "Observable",
    "QuantumChannel",
    "SolverConfig",
    "Status",
    "apply_channel",
    "check_chan_chan",
    "check_obs_chan",
    "check_obs_obs",
    "check_parallel",
    "check_redefined",
    "check_traditional",
    "check_weak",
    "choi_of_map",
    "compose_instrument_channel",
    "dual_apply",
    "dykstra_solve",
    "induced_observable",
    "luders_instrument",
    "marginal_instrument",
    "parallel_composition",
    "robustness_bisect",
    "total_channel",
]

__version__ = "0.1.0"
