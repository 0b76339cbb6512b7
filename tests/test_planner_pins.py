"""The provisioning search's read order and routing decisions, pinned.

``data/planner_pins.json`` holds two records, integers and strings only,
so they compare exactly on every Python version:

* ``planner``: a small :func:`~repro.optim.advisor.recommend_fleet`
  (two node kinds, one exact confirmation of 200 requests) from cold
  tables: its ranking, its confirmations, and every shared cost table's
  decode curves in creation order, each with the ``(kv_start, kv_end)``
  of every extension. A curve's
  chunk ends anchor its interpolation, so the order in which the fluid
  ranking and the confirmation first read the curves fixes the last
  bits of every later price; a change to that order shows here.
* ``tiered_router``: every :class:`~repro.cluster.tiering.TieredRouter`
  decision on a mixed SPR / A100 / SPR+A100-hybrid fleet, in order, as
  ``(request id, chosen replica)``, plus the router's counters. A
  failure and then a drain take the capable tiers out, so the run
  covers spills, the fallback below the capability floor and a
  routable set that changes mid-run.

After an intended change to either, re-record with::

    PYTHONPATH=src python tests/test_planner_pins.py --record
"""

import json
import pathlib
import sys

from repro.analysis.cost import list_price
from repro.cluster import (
    ClusterSimulator,
    NodeDrain,
    NodeFailure,
    ReplicaNode,
    ReplicaSpec,
    TieredRouter,
    tier_label,
)
from repro.engine import stepcost
from repro.engine.backend import HybridBackend
from repro.experiments._sweeps import clear_caches
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.optim.advisor import fleet_mix_candidates, recommend_fleet
from repro.workloads import ClassMixStream

PINS_PATH = pathlib.Path(__file__).parent / "data" / "planner_pins.json"

SPR, A100 = get_platform("spr"), get_platform("a100")
LLAMA7, LLAMA13 = get_model("llama2-7b"), get_model("llama2-13b")
MIX = (("simple", 0.5), ("standard", 0.35), ("reasoning", 0.15))


def _table_label(table) -> str:
    executor = table.executor
    return tier_label((table.model.name, executor.platform.name,
                       executor.backend.label))


def planner_record() -> dict:
    """Plan over the SPR/A100 mixes of two slots, from cold tables.

    At 2/s the fluid favourite (two SPR replicas) passes its one
    confirmation, and the mixed candidate's tiered fixed point runs to
    the iteration cap.
    """
    clear_caches()
    kinds = [("spr", ReplicaSpec(SPR, LLAMA13)),
             ("a100", ReplicaSpec(A100, LLAMA13))]
    recommendation = recommend_fleet(
        fleet_mix_candidates(kinds, 2), 2.0, mix=MIX,
        confirm_requests=200, seed=3)
    return {
        "ranked": [[a.label, a.feasible, a.fluid.iterations]
                   for a in recommendation.ranked],
        "confirmations": [[c.label, c.accepted]
                          for c in recommendation.confirmations],
        "cost_tables": [
            [_table_label(table),
             [[batch, [list(chunk) for chunk in curve._chunks]]
              for batch, curve in table._curves.items()]]
            for table in stepcost._TABLES.values()],
    }


class _RecordingRouter(TieredRouter):
    def __init__(self, classifier):
        super().__init__(classifier)
        self.placements = []

    def select(self, request, nodes, now):
        node = super().select(request, nodes, now)
        self.placements.append([request.request_id, node.name])
        return node


def router_record() -> dict:
    """Route 240 class-mix requests while the capable tiers go away.

    Cheap SPR LLaMA2-7B replicas serve the light classes; only the
    13B A100 and hybrid replicas clear the reasoning floor. The A100
    fails at 20 s and the hybrid drains at 45 s, after which reasoning
    requests fall back below their floor. Tables start cold, as in
    :func:`planner_record`, so earlier reads cannot move a price.
    """
    clear_caches()
    fleet = [
        ReplicaNode("spr-0", SPR, LLAMA7, max_batch=4),
        ReplicaNode("spr-1", SPR, LLAMA7, max_batch=4),
        ReplicaNode("a100-0", A100, LLAMA13, max_batch=4),
        ReplicaNode("hybrid-0", SPR, LLAMA13, max_batch=4,
                    backend=HybridBackend(gpu=A100),
                    price_usd=list_price(SPR.name) + list_price(A100.name)),
    ]
    stream = ClassMixStream(rate_per_s=3.0, count=240, seed=5)
    router = _RecordingRouter(stream.classifier())
    events = [NodeFailure(time_s=20.0, node="a100-0"),
              NodeDrain(time_s=45.0, node="hybrid-0")]
    ClusterSimulator(fleet, router, events=events).run(stream.full())
    return {"placements": router.placements,
            "counters": dict(sorted(router.counters().items()))}


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_recommend_fleet_reads_cost_curves_in_pinned_order():
    assert planner_record() == _pins()["planner"]


def test_tiered_router_decisions_match_pin():
    got, want = router_record(), _pins()["tiered_router"]
    assert got["counters"] == want["counters"]
    assert got["placements"] == want["placements"]


def test_router_pin_covers_spill_fallback_and_outage():
    counters = _pins()["tiered_router"]["counters"]
    assert counters.get("fallback:reasoning", 0) > 0
    assert any(key.startswith("spill:") for key in counters)
    served = {key.rsplit(":", 1)[1] for key in counters
              if key.startswith("served:")}
    assert len(served) == 3  # every tier took traffic


def record() -> None:
    data = {"planner": planner_record(), "tiered_router": router_record()}
    PINS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_planner_pins.py --record")
    record()
