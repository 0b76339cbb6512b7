"""Request routing across serving replicas.

A :class:`Router` picks a replica for each arriving request; the cluster
event loop calls it once per request at its arrival time, after bringing
forward only the replicas the policy declares it reads
(:meth:`Router.observes`). Policies:

* :class:`RoundRobinRouter` — the classic baseline: cycles through
  routable replicas, blind to load and device speed.
* :class:`JoinShortestQueueRouter` — fewest in-system requests
  (queued + running).
* :class:`LeastOutstandingTokensRouter` — fewest outstanding tokens,
  the token-aware refinement of JSQ (requests are wildly different
  sizes, so counting requests mis-weighs long prompts).
* :class:`ShardRouter` — a stateless *door* over per-group policies: a
  pure hash of the request id picks a fixed replica group, and a local
  policy instance (any of the above) routes within the group. Because
  the door never reads fleet state and each local policy only ever sees
  its own group, the fleet partitions into independent simulations —
  the property :func:`repro.cluster.shard.run_sharded` exploits to run
  replica groups in parallel worker processes with bit-identical
  results for any worker count.
* :class:`PhaseAwareRouter` — cost/SLO-aware heterogeneous routing:
  prices each candidate's prefill + decode for *this* request with the
  replica's own cost model, discards replicas whose projected TTFT
  (backlog + prefill) would break the SLO, and picks the cheapest
  feasible dollar-occupancy. The effect is the fleet-level version of
  the GPU-prefill / CPU-decode phase split that
  :class:`repro.engine.backend.HybridBackend` prices for one request:
  long-prefill requests land on compute-rich replicas (GPUs, AMX) whose
  speed advantage beats their price, decode-heavy requests land on
  bandwidth-rich CPU replicas that win per dollar on memory-bound work.
"""

import math
import operator
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.cost import price_rate
from repro.cluster.node import ReplicaNode
from repro.hardware.datatypes import DType
from repro.hardware.platform import Platform
from repro.serving.arrivals import ArrivingRequest
from repro.serving.slo import SLO


def phase_affinity(platform: Platform) -> float:
    """Compute-to-bandwidth balance of a platform (FLOP/s per byte/s).

    Prefill is compute-bound and belongs on high-affinity (compute-rich)
    devices — GPUs, AMX CPUs — while decode is memory-bound and belongs
    on low-affinity (bandwidth-rich) ones. Numerically this is the
    platform's BF16 roofline ridge point in FLOPs/byte.
    """
    return platform.peak_flops(DType.BF16) / platform.peak_memory_bandwidth


class Router:
    """Routing-policy interface."""

    name = "base"

    @staticmethod
    def routable(nodes: Sequence[ReplicaNode]) -> List[ReplicaNode]:
        """Replicas accepting new work (alive and not draining)."""
        candidates = [n for n in nodes if n.active and not n.draining]
        if not candidates:
            raise RuntimeError("no routable replica (all failed/draining)")
        return candidates

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        """Choose the replica that will serve *request*."""
        raise NotImplementedError

    def observes(self, request: ArrivingRequest,
                 nodes: Sequence[ReplicaNode]) -> Sequence[ReplicaNode]:
        """Replicas whose simulated state :meth:`select` may read.

        The event loop brings exactly these replicas (and then the
        chosen one) up to the arrival time before calling
        :meth:`select`; every other replica keeps coalescing its decode
        stretch. The default, the whole fleet, is always correct. A
        policy may return less only if :meth:`select` reads no other
        replica's queue, running set or clock: reading state outside
        this set changes results. Fleet membership and the
        ``active``/``draining`` flags change only at administrative
        events, which advance the whole fleet, so reading them needs no
        observation.
        """
        return nodes

    def counters(self) -> Dict[str, int]:
        """Integer decision counters this policy accumulated.

        Stateless policies report nothing. Policies that make
        *classified* decisions (:class:`repro.cluster.tiering.
        TieredRouter`'s routed/spill/fallback counts) report them here;
        the event loop snapshots the dict into
        :attr:`~repro.cluster.metrics.ClusterReport.router_counters`,
        and the sharded merge sums per-group counters — integer sums
        are order-free, so the merged counts are bit-identical for any
        worker count.
        """
        return {}


class RoundRobinRouter(Router):
    """Cycle through routable replicas in order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        candidates = self.routable(nodes)
        chosen = candidates[self._next % len(candidates)]
        self._next += 1
        return chosen

    def observes(self, request: ArrivingRequest,
                 nodes: Sequence[ReplicaNode]) -> Sequence[ReplicaNode]:
        """None: the cycle reads only the active/draining flags."""
        return ()


class JoinShortestQueueRouter(Router):
    """Fewest in-system requests (queued + running); ties go in order."""

    name = "jsq"

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        return min(self.routable(nodes),
                   key=lambda n: n.queue_len + len(n.running))


class LeastOutstandingTokensRouter(Router):
    """Fewest outstanding (prompt + remaining output) tokens."""

    name = "least_tokens"

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        # A maintained counter on the node: O(1) per replica, no scan.
        return min(self.routable(nodes),
                   key=operator.attrgetter("outstanding_tokens"))


class ShardRouter(Router):
    """Stateless door over per-group local routing policies.

    The fleet is partitioned *striped* by fleet position — replica
    ``i`` belongs to group ``i % num_groups``, so a mixed-backend fleet
    spreads each backend across groups — and every request is doored by
    a pure hash of its id, ``request_id % num_groups``. Requests rescued
    from a failed replica keep their id, so they re-door to the same
    group and requeue locally. Each group gets its own instance of the
    local policy (built once, up front, by *local*), which only ever
    observes its own group's replicas.

    Those two properties — a door that reads nothing but the request,
    and local state confined to one group — make the groups
    *independent*: simulating each group alone, against its own
    sub-stream of arrivals and its own slice of the failure/drain
    schedule, reproduces the global simulation bit-for-bit. That is the
    contract :func:`repro.cluster.shard.run_sharded` runs worker
    processes against, and why this router requires a **static fleet**:
    an autoscaler growing the fleet mid-run would re-stripe the groups
    (and global queue-depth scaling decisions are inherently
    cross-group), so a fleet-size change raises instead.

    Cost/SLO-aware routing (:class:`PhaseAwareRouter`) is shard-safe
    only in this grouped form — as the *local* policy, comparing
    replicas within one group. A fleet-global cost-SLO router is not
    partitionable: its choice depends on every replica's projected
    backlog, which couples all groups' queues into one decision.

    Args:
        num_groups: Number of independent replica groups.
        local: Zero-arg factory for the per-group policy (default
            :class:`RoundRobinRouter`). Called ``num_groups`` times at
            construction; the instances are pickled along to workers.
    """

    def __init__(self, num_groups: int,
                 local: Callable[[], Router] = RoundRobinRouter):
        if num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        self.num_groups = num_groups
        self.locals: List[Router] = [local() for _ in range(num_groups)]
        self.name = f"shard({self.locals[0].name}x{num_groups})"
        self._fleet_size: Optional[int] = None

    def door(self, request: ArrivingRequest) -> int:
        """The group serving *request* — a pure function of the id."""
        return request.request_id % self.num_groups

    def group_indices(self, fleet_size: int, group: int) -> List[int]:
        """Fleet positions belonging to *group* (striped partition)."""
        return list(range(group, fleet_size, self.num_groups))

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        if self._fleet_size is None:
            if len(nodes) < self.num_groups:
                raise ValueError(
                    f"ShardRouter with {self.num_groups} groups needs at "
                    f"least {self.num_groups} replicas, got {len(nodes)}")
            self._fleet_size = len(nodes)
        elif len(nodes) != self._fleet_size:
            raise RuntimeError(
                "ShardRouter requires a static fleet (group striping is "
                f"fixed at first routing): started with {self._fleet_size} "
                f"replicas, now {len(nodes)}")
        group = self.door(request)
        return self.locals[group].select(
            request, nodes[group::self.num_groups], now)

    def observes(self, request: ArrivingRequest,
                 nodes: Sequence[ReplicaNode]) -> Sequence[ReplicaNode]:
        """What the door group's local policy observes of its members."""
        group = self.door(request)
        return self.locals[group].observes(
            request, nodes[group::self.num_groups])

    def counters(self) -> Dict[str, int]:
        """Sum of the per-group locals' counters (order-free)."""
        total: Dict[str, int] = {}
        for local in self.locals:
            for key, value in local.counters().items():
                total[key] = total.get(key, 0) + value
        return total


#: Relative width of :class:`PhaseAwareRouter`'s cost-equivalence band:
#: dollar-occupancies within 15% compare equal.
COST_BAND = 0.15


class PhaseAwareRouter(Router):
    """Cost/SLO-aware routing for heterogeneous fleets.

    For each candidate the router projects, with that replica's own cost
    primitives, the request's prefill time, decode time, and queueing
    backlog. Replicas whose projected TTFT misses the SLO are set aside;
    among the feasible ones the cheapest *dollar-occupancy* — busy
    seconds times the device's listing-price proxy — wins, with the
    compute-to-bandwidth :func:`phase_affinity` breaking ties toward the
    phase-matched device (compute-rich for prefill-dominated requests,
    bandwidth-rich for decode-dominated). If no replica is feasible, the
    earliest projected finish wins — degrade latency, not correctness.

    Dollar-occupancies within ``COST_BAND`` of each other are treated as
    equal before the affinity tie-break: listing prices are proxies with
    easily 15% uncertainty, and for in-memory models the SPR/H100 speed
    and price ratios land within a few percent of parity (the paper's
    footnote-1 observation), so insisting on the raw minimum would turn
    routing into noise-chasing. Banding lets the phase match decide
    whenever the economics are a wash.

    Args:
        slo: Target SLO (``None`` disables the feasibility cut and
            routes purely by projected finish + cost).
    """

    name = "phase_aware"

    def __init__(self, slo: Optional[SLO] = None):
        self.slo = slo

    @staticmethod
    def _band(cost: float) -> int:
        """Geometric cost band; equal bands defer to phase affinity."""
        if cost <= 0:
            return 0
        return math.floor(math.log(cost) / math.log1p(COST_BAND))

    @staticmethod
    def _price_rate(node: ReplicaNode) -> float:
        """Listing-price proxy for *node*.

        A :class:`~repro.cluster.config.ReplicaSpec` ``price_usd``
        override wins; otherwise the platform's listing price. Unknown
        platforms fall back to the median price *with a one-time
        warning* (:func:`repro.analysis.cost.price_rate`) — a silently
        mispriced device would quietly re-band every cost comparison.
        """
        return price_rate(node.platform.name,
                          getattr(node, "price_usd", None))

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        prefill_heavy = request.input_len >= request.output_len
        best = None
        best_key = None
        for index, node in enumerate(self.routable(nodes)):
            prefill = node.prefill_cost_s(request.input_len)
            decode = node.decode_cost_s(request.input_len, request.output_len)
            ttft_projected = node.backlog_s(now) + prefill
            finish_projected = ttft_projected + decode
            dollar_occupancy = (prefill + decode) * self._price_rate(node)
            feasible = self.slo is None or ttft_projected <= self.slo.ttft_s
            affinity = phase_affinity(node.platform)
            # Feasible replicas sort by banded cost, then phase match
            # (compute-rich for prefill-dominated requests,
            # bandwidth-rich for decode-dominated); infeasible ones
            # (rank 1) by projected finish.
            key = (0 if feasible else 1,
                   self._band(dollar_occupancy) if feasible
                   else finish_projected,
                   -affinity if prefill_heavy else affinity,
                   dollar_occupancy,
                   index)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best
