"""Declarative fleet construction, including mixed-backend fleets.

A :class:`ClusterConfig` is a list of :class:`ReplicaSpec` groups —
"2 SPR replicas running BF16, 2 running INT8 over both sockets" — that
expands into named :class:`~repro.cluster.node.ReplicaNode` instances.
Replicas in one fleet may run different
:class:`~repro.engine.backend.ExecutionBackend` configurations; each
prices through its own backend-keyed cost table
(:func:`repro.engine.stepcost.decode_cost_table`), so router cost
projections, event-horizon fast-forward, and exact stepping all see the
same per-replica numbers regardless of how the fleet is mixed.
"""

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.cluster.admission import make_scheduler
from repro.cluster.node import ReplicaNode
from repro.engine.backend import ExecutionBackend
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class ReplicaSpec:
    """One homogeneous replica group within a fleet.

    Attributes:
        platform: Device the group's replicas run on.
        model: Served model.
        count: Replicas in the group.
        backend: Execution backend (``None`` = plain BF16).
        max_batch: Per-replica batching limit.
        scheduler: Admission policy spelling ("fcfs", "vtc", "wsc");
            ``None`` and "fcfs" keep the node's built-in FCFS loop. Each
            replica gets its own scheduler instance (service counters
            are per-node state).
        scheduler_weights: Per-tenant ``(user_id, weight)`` pairs for
            ``scheduler="wsc"``; a tuple-of-pairs (not a dict) so the
            spec stays hashable/frozen.
        price_usd: Listing-price override per replica. ``None`` means
            look the platform up in
            :data:`repro.analysis.cost.LIST_PRICE_USD`; unknown
            platforms then price at the median with a one-time warning,
            so fleets on unlisted hardware should set this explicitly.
    """

    platform: Platform
    model: ModelConfig
    count: int = 1
    backend: Optional[ExecutionBackend] = None
    max_batch: int = 8
    scheduler: Optional[str] = None
    scheduler_weights: Optional[Tuple[Tuple[int, float], ...]] = None
    price_usd: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.count, "count")
        if self.price_usd is not None:
            require_positive(self.price_usd, "price_usd")
        # Validate the spelling eagerly (build-time instances are fresh
        # per node; this throwaway one just checks the name).
        make_scheduler(self.scheduler, dict(self.scheduler_weights or ()))

    def make_admission(self):
        """A fresh per-node admission scheduler (or ``None`` for FCFS)."""
        return make_scheduler(self.scheduler,
                              dict(self.scheduler_weights or ()))

    @property
    def base_name(self) -> str:
        """``<platform>[-<backend label>]``: replicas are ``spr-0``, ..."""
        key = self.platform.name.split("-")[0].lower()
        if self.backend is not None:
            return f"{key}-{self.backend.label}"
        return key

    def build(self, name: str) -> ReplicaNode:
        """Instantiate one replica of this group, named *name*.

        The only recipe for a fleet replica: :class:`ClusterConfig`
        numbers and builds its fleet through it, and the
        :class:`~repro.cluster.autoscaler.Autoscaler` builds each
        scale-up replica with it (``count`` is not read). The tracer and
        exact mode are the simulator's: it sets both on every node it
        adopts.
        """
        return ReplicaNode(name, self.platform, self.model, self.max_batch,
                           self.backend,
                           admission=self.make_admission(),
                           price_usd=self.price_usd)


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """A whole fleet as data: replica groups, possibly mixed-backend."""

    replicas: Tuple[ReplicaSpec, ...]

    def __init__(self, replicas: Sequence[ReplicaSpec]):
        if not replicas:
            raise ValueError("ClusterConfig needs at least one ReplicaSpec")
        object.__setattr__(self, "replicas", tuple(replicas))

    @property
    def size(self) -> int:
        """Total replica count across all groups."""
        return sum(spec.count for spec in self.replicas)

    def build_fleet(self) -> List[ReplicaNode]:
        """Instantiate every replica, numbered across the fleet.

        Fleet-wide numbering keeps names unique even when two groups
        share a base name (e.g. two BF16 SPR groups with different
        batch limits).
        """
        return self.build_subset(range(self.size))

    def _flat_specs(self) -> List[ReplicaSpec]:
        """One spec per replica, in fleet order."""
        flat: List[ReplicaSpec] = []
        for spec in self.replicas:
            flat.extend([spec] * spec.count)
        return flat

    def replica_names(self) -> List[str]:
        """The fleet's replica names in fleet order, without building it."""
        return [f"{spec.base_name}-{index}"
                for index, spec in enumerate(self._flat_specs())]

    def build_subset(self, indices: Sequence[int]) -> List[ReplicaNode]:
        """Instantiate only the replicas at the given fleet positions.

        Names carry the *fleet-wide* index, identical to what
        :meth:`build_fleet` would have assigned — a sharded worker's
        group of replicas is indistinguishable from the same replicas
        inside the full fleet.
        """
        flat = self._flat_specs()
        subset: List[ReplicaNode] = []
        for index in indices:
            if not 0 <= index < len(flat):
                raise IndexError(f"replica index {index} out of range for "
                                 f"a fleet of {len(flat)}")
            spec = flat[index]
            subset.append(spec.build(f"{spec.base_name}-{index}"))
        return subset
