"""Section VI optimization studies: hybrid execution, deployment search."""

from repro.optim.advisor import (
    Candidate,
    DeploymentAdvisor,
    FleetAssessment,
    FleetConfirmation,
    FleetRecommendation,
    Recommendation,
    fleet_mix_candidates,
    measure_fleet,
    recommend_fleet,
    size_fleet,
)
from repro.optim.hybrid import HybridPlan, HybridPlanner

__all__ = [
    "Candidate",
    "DeploymentAdvisor",
    "FleetAssessment",
    "FleetConfirmation",
    "FleetRecommendation",
    "HybridPlan",
    "Recommendation",
    "HybridPlanner",
    "fleet_mix_candidates",
    "measure_fleet",
    "recommend_fleet",
    "size_fleet",
]
