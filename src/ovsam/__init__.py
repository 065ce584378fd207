"""Pose-graph optimization with orientation-vector rotation states.

Rotations live in the state as plain 2-vectors; unit length is imposed
by per-pose Lagrange constraints instead of by the parameterization, so
the optimizer works in a flat Euclidean space and can use exact first
and second derivatives of every cost.  The solver is a damped Newton
descent on the Lagrangian saddle point over odometry and visual-homing
measurements.
"""

from .costs import CostEval, RotCostConfig
from .errors import (
    DegenerateVectorError,
    GraphFormatError,
    GraphValidationError,
    InvalidCovarianceError,
    NumericalFailure,
    OracleError,
    OvsamError,
    PreconditionError,
)
from .graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    Pose,
    load_graph,
    save_graph,
)
from .sim import GroundTruth, SimConfig, simulate
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "CostEval",
    "DegenerateVectorError",
    "FactorGraph",
    "GraphFormatError",
    "GraphValidationError",
    "GroundTruth",
    "HomingMeasurement",
    "InvalidCovarianceError",
    "NumericalFailure",
    "OdometryMeasurement",
    "OracleError",
    "OvsamError",
    "Pose",
    "PreconditionError",
    "RotCostConfig",
    "SimConfig",
    "SolveReport",
    "SolverConfig",
    "__version__",
    "simulate",
    "solve",
    "load_graph",
    "save_graph",
]
