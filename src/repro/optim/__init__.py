"""Section VI optimization studies: hybrid execution, deployment search."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".advisor": ("Candidate", "DeploymentAdvisor", "FleetAssessment",
                 "FleetConfirmation", "FleetRecommendation", "Recommendation",
                 "fleet_mix_candidates", "measure_fleet", "recommend_fleet",
                 "size_fleet"),
    ".hybrid": ("HybridPlan", "HybridPlanner"),
})
