"""Queue-driven fleet autoscaling with provisioning lag.

Real fleets cannot add capacity instantly: a scale-up decision is
followed by minutes of provisioning before the replica takes traffic.
The :class:`Autoscaler` models exactly that — it samples fleet pressure
on a fixed interval, builds a replica from its template
:class:`~repro.cluster.config.ReplicaSpec` when the unadmitted queue
runs deep, and the cluster loop brings the node online
``provisioning_lag_s`` later. Scale-down is graceful: the
least-loaded replica drains (finishes in-flight work, takes no new
routes) and leaves the fleet when empty.
"""

import itertools
from typing import Optional, Sequence

from repro.cluster.config import ReplicaSpec
from repro.cluster.node import ReplicaNode
from repro.utils.validation import require_positive


class Autoscaler:
    """Scales the fleet from queue depth, with provisioning lag.

    Args:
        template: Recipe for scale-up replicas; each scale-up builds one
            replica with ``template.build(next_name())`` (the spec's
            ``count`` is not read).
        min_nodes / max_nodes: Fleet-size bounds.
        scale_up_queue_per_node: Add a replica when the fleet's
            unadmitted queue exceeds this many requests per active
            replica.
        scale_down_queue_per_node: Drain a replica when the *total*
            in-system load (queued + running) per active replica falls
            below this.
        provisioning_lag_s: Delay between the scale-up decision and the
            new replica taking traffic.
        sample_interval_s: How often fleet pressure is sampled.
    """

    def __init__(self, template: ReplicaSpec,
                 min_nodes: int = 1, max_nodes: int = 8,
                 scale_up_queue_per_node: float = 4.0,
                 scale_down_queue_per_node: float = 0.5,
                 provisioning_lag_s: float = 30.0,
                 sample_interval_s: float = 5.0):
        require_positive(min_nodes, "min_nodes")
        require_positive(sample_interval_s, "sample_interval_s")
        if max_nodes < min_nodes:
            raise ValueError(f"max_nodes ({max_nodes}) must be >= "
                             f"min_nodes ({min_nodes})")
        if scale_down_queue_per_node >= scale_up_queue_per_node:
            raise ValueError("scale_down threshold must sit below scale_up")
        self.template = template
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.scale_up_queue_per_node = scale_up_queue_per_node
        self.scale_down_queue_per_node = scale_down_queue_per_node
        self.provisioning_lag_s = provisioning_lag_s
        self.sample_interval_s = sample_interval_s
        self._names = itertools.count()

    def next_name(self) -> str:
        """Fresh replica name ("auto-0", "auto-1", ...)."""
        return f"auto-{next(self._names)}"

    def decide(self, nodes: Sequence[ReplicaNode],
               provisioning: int) -> Optional[str]:
        """One sampling decision: ``"up"``, ``"down"``, or ``None``.

        *nodes* is the full fleet; *provisioning* counts replicas already
        ordered but not yet online (they dampen repeated scale-ups during
        the lag window).
        """
        active = [n for n in nodes if n.active and not n.draining]
        if not active:
            return "up" if provisioning == 0 else None
        queued = sum(n.queue_len for n in active)
        in_system = queued + sum(len(n.running) for n in active)
        size = len(active) + provisioning
        if (queued / len(active) > self.scale_up_queue_per_node
                and size < self.max_nodes):
            return "up"
        if (in_system / len(active) < self.scale_down_queue_per_node
                and len(active) > self.min_nodes and provisioning == 0):
            return "down"
        return None

    @staticmethod
    def pick_drain_target(nodes: Sequence[ReplicaNode]) -> ReplicaNode:
        """Least-loaded active replica (the cheapest one to retire)."""
        active = [n for n in nodes if n.active and not n.draining]
        return min(active, key=lambda n: n.outstanding_tokens)
