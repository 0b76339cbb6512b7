"""Structured cluster lifecycle events.

Each record carries the machine-readable facts of one administrative
event: kind, time, node and a kind-specific payload.
"""

import dataclasses
from typing import Mapping

#: The event kinds the cluster loop emits.
FAILURE = "failure"
DRAIN = "drain"
ONLINE = "online"
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"


@dataclasses.dataclass(frozen=True)
class ClusterEvent:
    """One administrative event observed by the cluster event loop.

    Attributes:
        kind: One of ``failure``/``drain``/``online``/``scale_up``/
            ``scale_down``.
        time_s: Simulation time the event fired.
        node: Replica the event concerns.
        details: Kind-specific payload — ``failure`` carries ``requeued``
            and ``wasted_tokens``; ``online`` carries ``platform``;
            ``scale_up`` carries ``online_at_s``.
    """

    kind: str
    time_s: float
    node: str
    details: Mapping[str, object] = dataclasses.field(default_factory=dict)
