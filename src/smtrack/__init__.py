"""Adaptive robust tracking control with set-membership parameter learning.

The package models linear systems whose state and input matrices depend
affinely on an unknown parameter vector confined to an ellipsoid, and
provides:

- ellipsoidal calculus (volume-minimal outer bounds of intersections),
- a recursive set-membership estimator that never grows the belief volume,
- a one-step worst-case tracking controller solved by an interior-point
  method over second-order cone constraints,
- an exploring variant that maximizes the next observation's information
  inside a trust region around the robust input, and
- reproducible closed-loop studies with Monte Carlo averaging.
"""

from .active import (
    InfoQuadratic,
    build_info_quadratic,
    build_trust_region,
    solve_active,
)
from .ellipsoid import (
    DegenerateOperandError,
    Ellipsoid,
    InconsistentSetsError,
)
from .estimator import (
    InconsistentObservationError,
    Observation,
    ParameterBelief,
    build_observation,
    build_state_observation,
    update,
)
from .experiments import (
    MODES,
    MonteCarloReport,
    Reference,
    RunRecord,
    ScenarioSpec,
    accumulated_cost,
    load_scenario,
    monte_carlo,
    run,
    scenario,
    scenario_from_config,
    scenario_names,
    scenario_to_config,
    window_error,
    write_cost_csv,
    write_report_csv,
    write_run_csv,
)
from .model import UncertainModel
from .robust import (
    ControlBounds,
    RobustSolution,
    TrackingInstance,
    build_instance,
    solve_known_theta,
    solve_robust,
    worst_case_interval,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateOperandError",
    "Ellipsoid",
    "InconsistentSetsError",
    "UncertainModel",
    "InconsistentObservationError",
    "Observation",
    "ParameterBelief",
    "build_observation",
    "build_state_observation",
    "update",
    "ControlBounds",
    "RobustSolution",
    "TrackingInstance",
    "build_instance",
    "solve_known_theta",
    "solve_robust",
    "worst_case_interval",
    "InfoQuadratic",
    "build_info_quadratic",
    "build_trust_region",
    "solve_active",
    "MODES",
    "MonteCarloReport",
    "Reference",
    "RunRecord",
    "ScenarioSpec",
    "accumulated_cost",
    "load_scenario",
    "monte_carlo",
    "run",
    "scenario",
    "scenario_from_config",
    "scenario_names",
    "scenario_to_config",
    "window_error",
    "write_cost_csv",
    "write_report_csv",
    "write_run_csv",
    "__version__",
]
