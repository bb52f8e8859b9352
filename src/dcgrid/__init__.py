"""Existence, small-signal stability, and time-domain simulation for DC grids
feeding constant power loads through resistive lines.

The toolkit answers three questions about a droop-controlled DC network:
does a constant steady state exist, is it locally exponentially stable for
the configured control lag, and does the nonlinear model agree.  Everything
hangs off a single JSON grid document; see `network` for the schema.
"""

from .errors import DomainError, NumericalError, SpecError
from .existence import (ExistenceCertificate, PreparedGrid, Thresholds,
                        analytic_thresholds, bracket, certify, dual_ascent,
                        fixed_point_solve, prepare)
from .linalg import PerronPair, min_symmetric_eigenvalue, perron, reduce_network
from .network import (AdmittancePartition, ControlParams, Line, LoadNode,
                      NetworkSpec, SourceNode, build_admittance,
                      check_connected, load_network, parse_network)
from .simulate import (Event, Scenario, SimulationTrace, load_scenario,
                       parse_scenario, simulate, solve_load_voltages)
from .stability import (StabilityReport, analyze_stability, cpl_linearize,
                        effective_admittance, jacobian, sufficient_stability)

__version__ = "0.1.0"

__all__ = [
    "AdmittancePartition", "ControlParams", "DomainError",
    "Event", "ExistenceCertificate", "Line", "LoadNode", "NetworkSpec",
    "NumericalError", "PerronPair", "PreparedGrid", "Scenario",
    "SimulationTrace", "SourceNode", "SpecError", "StabilityReport", "Thresholds",
    "analytic_thresholds", "analyze_stability", "bracket",
    "build_admittance", "certify", "check_connected", "cpl_linearize",
    "dual_ascent", "effective_admittance", "fixed_point_solve",
    "jacobian", "load_network",
    "load_scenario", "min_symmetric_eigenvalue", "parse_network",
    "parse_scenario", "perron", "prepare", "reduce_network", "simulate",
    "solve_load_voltages", "sufficient_stability",
]
