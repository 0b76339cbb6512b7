"""Pluggable admission scheduling: who gets the next batch slot.

A :class:`~repro.cluster.node.ReplicaNode` admits queued requests into
its continuous batch whenever a slot frees; *which* queued request it
admits is this module's policy seam. FCFS is the node's built-in loop
(no scheduler attached): it admits in readiness order. The fairness
schedulers pick by per-tenant service counters so a heavy
tenant's backlog cannot starve light tenants' requests — the
virtual-token-counter (VTC) discipline of fair LLM serving, plus a
weighted variant (WSC).

**Work-conserving contract.** The node's event-horizon fast-forward
coalesces pure-decode stretches under the assumption that
``pending[0].ready_s`` (the queue is kept sorted by readiness) is the
earliest instant the batch could change. A scheduler may reorder *which*
ready request is admitted, but it must admit **some** request whenever
one is ready and a slot is free — :meth:`AdmissionScheduler.pick` must
not return ``None`` in that situation. Every scheduler here is
work-conserving, which is also why scheduler choice composes with
fast-forward unchanged: decisions only happen at batch-membership
events.

Schedulers are per-node and stateful (service counters survive across
iterations); build one per replica via :func:`make_scheduler` — sharing
an instance between nodes would pool their counters.
"""

from typing import Dict, Mapping, Optional, Sequence

from repro.serving.arrivals import ArrivingRequest

#: Spelling accepted by :func:`make_scheduler` and the CLI.
SCHEDULER_NAMES = ("fcfs", "vtc", "wsc")

#: VTC charge per prefill token (at admission) and per decode token
#: (at completion; decode tokens are dearer).
PREFILL_WEIGHT = 1.0
DECODE_WEIGHT = 2.0


def _tenant(request: ArrivingRequest) -> int:
    """Tenant key: ``user_id`` for tenant-tagged requests, else one pool."""
    return getattr(request, "user_id", 0)


class AdmissionScheduler:
    """Queue-ordering policy for one replica's admission loop.

    Subclasses override :meth:`pick`; the bookkeeping hooks are no-ops
    by default. The node calls them as follows:

    * :meth:`on_arrival` — request routed to this node's queue,
    * :meth:`pick` — a slot is free; choose an index into *pending*
      (kept sorted by ``ready_s``) or return ``None`` if nothing is
      admissible at *now* (only legal when nothing is ready),
    * :meth:`on_admit` — the picked request entered the batch,
    * :meth:`on_finish` — a request completed and left the batch.
    """

    name = "base"

    def on_arrival(self, request: ArrivingRequest, now: float) -> None:
        """A request joined this node's queue."""

    def pick(self, pending: Sequence, now: float) -> Optional[int]:
        """Index of the next request to admit, or ``None`` if none ready.

        *pending* holds the node's per-request records (read here:
        ``ready_s``, ``request``) sorted ascending by ``ready_s``.
        """
        raise NotImplementedError

    def on_admit(self, request: ArrivingRequest, now: float) -> None:
        """The picked request entered the running batch."""

    def on_finish(self, request: ArrivingRequest) -> None:
        """A running request completed."""


class VirtualTokenCounterScheduler(AdmissionScheduler):
    """VTC fair admission: serve the tenant with the least service.

    Each tenant accrues a virtual-token counter — prefill tokens
    (weighted ``PREFILL_WEIGHT``) charged at admission, decode tokens
    (weighted ``DECODE_WEIGHT``, dearer per token) at completion — and a
    free slot goes to the ready request whose tenant has the smallest
    counter. Under backlog this converges to max-min fair token service
    regardless of demand skew.

    The *lift* rule keeps the counter meaningful across idleness: a
    tenant re-entering the system (no queued or running requests here)
    has its counter raised to the smallest counter among tenants
    currently in the system, so sitting idle banks no credit with which
    to later monopolize the batch.

    ``pick`` scans the ready prefix of the queue — O(ready backlog) per
    admission. Fine at the shallow queues of near-capacity operation;
    under sustained 2x overload with a 100k-request backlog you are
    measuring the backlog, not the scheduler (the fairness bench runs
    near capacity for exactly this reason).
    """

    name = "vtc"

    def __init__(self):
        self.counters: Dict[int, float] = {}
        self._in_system: Dict[int, int] = {}

    def _weight(self, tenant: int) -> float:
        """Per-tenant service weight; 1.0 for plain VTC."""
        return 1.0

    def on_arrival(self, request: ArrivingRequest, now: float) -> None:
        tenant = _tenant(request)
        count = self._in_system.get(tenant, 0)
        if count == 0:
            # Lift: a tenant returning from idle starts from the least
            # served active tenant, never from stale credit.
            active = [self.counters[t] for t, n in self._in_system.items()
                      if n > 0]
            floor = min(active) if active else 0.0
            self.counters[tenant] = max(self.counters.get(tenant, 0.0),
                                        floor)
        self._in_system[tenant] = count + 1

    def pick(self, pending: Sequence, now: float) -> Optional[int]:
        best_index: Optional[int] = None
        best_counter = 0.0
        for index, queued in enumerate(pending):
            if queued.ready_s > now:
                break  # sorted by ready_s: nothing further is ready
            counter = self.counters.get(_tenant(queued.request), 0.0)
            # Deterministic total order: counter, then readiness order
            # (the enumerate order already encodes ready_s then FIFO).
            if best_index is None or counter < best_counter:
                best_index = index
                best_counter = counter
        return best_index

    def on_admit(self, request: ArrivingRequest, now: float) -> None:
        tenant = _tenant(request)
        charge = (PREFILL_WEIGHT * request.input_len
                  / self._weight(tenant))
        self.counters[tenant] = self.counters.get(tenant, 0.0) + charge

    def on_finish(self, request: ArrivingRequest) -> None:
        tenant = _tenant(request)
        charge = (DECODE_WEIGHT * request.output_len
                  / self._weight(tenant))
        self.counters[tenant] = self.counters.get(tenant, 0.0) + charge
        remaining = self._in_system.get(tenant, 0) - 1
        if remaining <= 0:
            self._in_system.pop(tenant, None)
        else:
            self._in_system[tenant] = remaining


class WeightedServiceCounterScheduler(VirtualTokenCounterScheduler):
    """WSC: VTC with per-tenant service weights.

    A tenant of weight *w* accrues counter at ``1/w`` the rate per
    token, so the max-min allocation the scheduler converges to gives
    weight-proportional token service — the knob for paid tiers or
    app-level capacity contracts. Unlisted tenants get weight 1.0.
    """

    name = "wsc"

    def __init__(self, weights: Optional[Mapping[int, float]] = None):
        super().__init__()
        weights = dict(weights or {})
        for tenant, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"tenant weight must be > 0, got "
                                 f"{weight!r} for tenant {tenant}")
        self.weights = weights

    def _weight(self, tenant: int) -> float:
        return self.weights.get(tenant, 1.0)


def make_scheduler(spec: Optional[str],
                   weights: Optional[Mapping[int, float]] = None
                   ) -> Optional[AdmissionScheduler]:
    """Build a fresh per-node scheduler from its CLI spelling.

    ``None`` and ``"fcfs"`` both return ``None``: the node's built-in
    FCFS loop, which :attr:`~repro.cluster.node.ReplicaNode.scheduler_name`
    reports as ``"fcfs"``. *weights* only applies to ``"wsc"``.
    """
    if spec is None or spec == "fcfs":
        return None
    if spec == "vtc":
        return VirtualTokenCounterScheduler()
    if spec == "wsc":
        return WeightedServiceCounterScheduler(weights=weights)
    raise ValueError(f"unknown admission scheduler {spec!r}; expected one "
                     f"of {SCHEDULER_NAMES}")
