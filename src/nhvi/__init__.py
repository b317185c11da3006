"""Variational integrators for nonholonomic Lagrangian systems with elastic
collisions: implicit discrete Euler-Lagrange stepping, four-phase impact
resolution, built-in example systems, diagnostics, and a CLI."""

from .config import SimConfig, build_model, config_from_dict, parse_config, serialize_config
from .diagnostics import RunReport, build_report, energy_series
from .discretization import (
    DiscreteLagrangian,
    discrete_energy,
    initial_discretize,
    make_discrete_lagrangian,
    omega_dminus,
    omega_dplus,
)
from .errors import (
    AlphaOutOfRange,
    DegenerateFrame,
    DimensionMismatch,
    EvaluationFailure,
    InvalidInitialState,
    NewtonFailure,
    NhviError,
    NoElasticRebound,
    NotOnBoundary,
    ParameterError,
    PersistentPenetration,
    RootSelectionAmbiguous,
    SchemaError,
    SingularJacobian,
)
from .geometry import (
    BoundaryFrame,
    MechanicalModel,
    boundary_frame,
    pullback_cotangent,
    push_cotangent,
)
from .integrator import (
    ImpactEvent,
    State,
    Trajectory,
    resolve_impact,
    simulate,
    step_minus,
    step_plus,
)
from .models import (
    EllipseShape,
    ParticleParams,
    PendulumParams,
    Se2BodyParams,
    StarShape,
    make_particle,
    make_pendulum,
    make_se2_body,
)
from .numerics import NewtonOptions, NewtonResult, fd_jacobian, newton_solve

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "BoundaryFrame",
    "DegenerateFrame",
    "DimensionMismatch",
    "DiscreteLagrangian",
    "EllipseShape",
    "EvaluationFailure",
    "ImpactEvent",
    "InvalidInitialState",
    "MechanicalModel",
    "NewtonFailure",
    "NewtonOptions",
    "NewtonResult",
    "NhviError",
    "NoElasticRebound",
    "NotOnBoundary",
    "ParameterError",
    "ParticleParams",
    "PendulumParams",
    "PersistentPenetration",
    "RootSelectionAmbiguous",
    "RunReport",
    "SchemaError",
    "Se2BodyParams",
    "SimConfig",
    "SingularJacobian",
    "StarShape",
    "State",
    "Trajectory",
    "boundary_frame",
    "build_model",
    "build_report",
    "config_from_dict",
    "discrete_energy",
    "energy_series",
    "fd_jacobian",
    "initial_discretize",
    "make_discrete_lagrangian",
    "make_particle",
    "make_pendulum",
    "make_se2_body",
    "newton_solve",
    "omega_dminus",
    "omega_dplus",
    "parse_config",
    "pullback_cotangent",
    "push_cotangent",
    "resolve_impact",
    "serialize_config",
    "simulate",
    "step_minus",
    "step_plus",
]
