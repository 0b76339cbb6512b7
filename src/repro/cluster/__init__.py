"""Fleet layer: discrete-event, multi-replica serving simulation.

Everything above one node: steppable replicas wrapping the
continuous-batching scheduler, pluggable request routing (including
cost/SLO-aware heterogeneous routing), queue-driven autoscaling with
provisioning lag, and failure handling with requeue accounting. The
deployment question the paper's Section VI costs out — how many SPR
sockets vs. GPUs serve a load within SLO — answered by simulation
instead of ceiling division. Fleets routed by :class:`ShardRouter`
additionally decompose into independent replica groups that
:func:`run_sharded` simulates in worker processes and merges back
deterministically (see :mod:`repro.cluster.shard`).
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".admission": ("AdmissionScheduler", "VirtualTokenCounterScheduler",
                   "WeightedServiceCounterScheduler", "make_scheduler"),
    ".autoscaler": ("Autoscaler",),
    ".config": ("ClusterConfig", "ReplicaSpec"),
    ".events": ("ClusterEvent",),
    ".fairness": ("FairnessReport", "TenantStats", "fairness_report"),
    ".fluid": ("ClassReport", "FluidReport", "FluidScenario", "StationReport",
               "saturation_rate", "solve", "solve_grid"),
    ".metrics": ("ClusterReport", "NodeStats"),
    ".node": ("ReplicaNode",),
    ".router": ("JoinShortestQueueRouter", "LeastOutstandingTokensRouter",
                "PhaseAwareRouter", "RoundRobinRouter", "Router",
                "ShardRouter"),
    ".shard": ("run_sharded", "warm_caches"),
    ".simulator": ("ClusterSimulator", "NodeDrain", "NodeFailure"),
    ".tiering": ("ClassStats", "TieredRouter", "TieringReport", "TierStats",
                 "tier_label", "tiering_report"),
})
