"""Gauge-coupled nonlinear Schrodinger dynamics on configuration-space
grids, with self-gravitating wave mechanics as its one-site limit."""

from .errors import (ConstraintViolationError, ConvergenceError,
                     GridShapeError, InsufficientDataError, IntegratorError,
                     UnsolvableConstraintError)
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import (GaugeState, HamiltonianSpec, ModelParams, StationaryState,
                    nonlinearity)
from .numerics import poisson_solve, smallest_eigenpair
from .gaugeops import (gauge_transform, gauss_residual,
                       gauss_solve_stationary, initialize_constraint)
from .dynamics import (Snapshot, Trajectory, continuity_residual,
                       evolve_temporal_gauge, stationary_solve)
from .action import action_evaluate, scale_transform, scale_transform_state
from .sn import (RadialState, SNParams, limit_equivalence_check, sn_evolve_1d,
                 sn_ground_radial_scf, sn_ground_radial_shoot)
from .verify import CheckReport, run_all as run_verification_suite

__all__ = [
    "RadialGrid", "TensorGrid", "UniformGrid1D",
    "GaugeState", "HamiltonianSpec", "ModelParams", "StationaryState",
    "nonlinearity",
    "poisson_solve", "smallest_eigenpair",
    "gauge_transform", "gauss_residual", "gauss_solve_stationary",
    "initialize_constraint",
    "Snapshot", "Trajectory", "continuity_residual", "evolve_temporal_gauge",
    "stationary_solve",
    "action_evaluate", "scale_transform", "scale_transform_state",
    "RadialState", "SNParams", "limit_equivalence_check",
    "sn_evolve_1d", "sn_ground_radial_scf", "sn_ground_radial_shoot",
    "CheckReport", "run_verification_suite",
    "GridShapeError", "UnsolvableConstraintError", "ConvergenceError",
    "IntegratorError", "ConstraintViolationError", "InsufficientDataError",
]
