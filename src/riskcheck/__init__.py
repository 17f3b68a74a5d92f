"""riskcheck: hazard trajectories of maintained systems and what the
exponential approximation misses about them."""

__version__ = "0.1.0"

from .compare import (
    ComparisonReport,
    PraModel,
    check_stochastic_order,
    default_time_grid,
    pra_rate_from_mttf,
    underestimation_report,
)
from .hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
    PrincipleViolationError,
    TrajectoryStructureError,
    ValidationReport,
    Violation,
    cumulative_hazard,
    ensure_valid,
    failure_cdf,
    hazard_at,
    invert_cumulative_hazard_array,
    mean_time_to_failure,
    reliability,
    validate_trajectory,
)
from .poisson import (
    DiscretizedFailureProcess,
    discretize,
    exact_tv_small,
    ks_distance,
    stein_chen_tv_bound,
)
from .sampling import sample_replicates
from .scenarios import (
    Scenario,
    build_trajectory,
    scenario_catalog,
)

__all__ = [
    "__version__",
    # hazard
    "Constant",
    "Linear",
    "Power",
    "ExponentialGrowth",
    "HazardSegment",
    "MaintenanceEpoch",
    "HazardTrajectory",
    "Violation",
    "ValidationReport",
    "TrajectoryStructureError",
    "PrincipleViolationError",
    "validate_trajectory",
    "ensure_valid",
    "hazard_at",
    "cumulative_hazard",
    "reliability",
    "failure_cdf",
    "mean_time_to_failure",
    "invert_cumulative_hazard_array",
    # sampling
    "sample_replicates",
    # scenarios
    "Scenario",
    "build_trajectory",
    "scenario_catalog",
    # compare
    "PraModel",
    "ComparisonReport",
    "pra_rate_from_mttf",
    "default_time_grid",
    "check_stochastic_order",
    "underestimation_report",
    # poisson distance
    "DiscretizedFailureProcess",
    "discretize",
    "stein_chen_tv_bound",
    "exact_tv_small",
    "ks_distance",
]
