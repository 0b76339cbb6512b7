"""A run imports only what it uses, and nothing mid-call.

Every package ``__init__`` except :mod:`repro.experiments` exports its
names lazily (:mod:`repro.lazy`), and every module imports its
dependencies at the top. A fresh interpreter imports the fleet-decode
benchmark's entry points and checks that the paper harness, the offload
engine, the findings, the sensitivity sweeps, the counter model and the
fluid solver stayed unloaded. It then runs a small sharded fleet, a
fleet-mix recommendation and a single request, and checks that no
``repro`` module was first imported inside those calls, where the
import would be timed as run time. A CPU–GPU hybrid backend prices its
GPU prefill leg with the transfer model alone, so building one and
pricing a prefill leaves the offload engine unloaded too.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = """
import sys

from repro.cluster import ClusterConfig, ReplicaSpec, ShardRouter, run_sharded
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.workloads.generator import WorkloadSpec
from repro.workloads.streams import ShardableStream

unused = ["repro.experiments", "repro.offload.engine", "repro.core.findings",
          "repro.analysis.sensitivity", "repro.perfcounters",
          "repro.cluster.fluid"]
print("loaded:", [name for name in unused if name in sys.modules])

from repro.core.runner import run_inference
from repro.engine.backend import HybridBackend
from repro.engine.request import InferenceRequest
from repro.optim.advisor import fleet_mix_candidates, recommend_fleet

spr, a100 = get_platform("spr"), get_platform("a100")
model = get_model("llama2-7b")
config = ClusterConfig([ReplicaSpec(spr, model, count=2, max_batch=4)])
spec = WorkloadSpec("decode", input_len_range=(16, 64),
                    output_len_range=(16, 32), batch_size=1,
                    priority_metric="e2e_throughput")
arrivals = list(ShardableStream(rate_per_s=2.0, spec=spec, seed=7,
                                count=40).full())
candidates = fleet_mix_candidates(
    [("spr", ReplicaSpec(spr, model)),
     ("hybrid", ReplicaSpec(spr, model, backend=HybridBackend(gpu=a100)))],
    2)
request = InferenceRequest(batch_size=2, input_len=64, output_len=8)
before = set(sys.modules)
report = run_sharded(config, ShardRouter(2), arrivals, workers=1)
assert len(report.completed) == len(arrivals)
recommendation = recommend_fleet(candidates, rate_per_s=1.0,
                                 mix=(("simple", 1.0),),
                                 confirm_requests=40, seed=7)
assert recommendation.ranked
assert run_inference(spr, model, request).ttft_s > 0
print("imported mid-call:", sorted(name for name in set(sys.modules) - before
                                   if name.startswith("repro")))
"""

HYBRID_SCRIPT = """
import sys

from repro.engine.backend import HybridBackend
from repro.hardware.registry import get_platform
from repro.models.registry import get_model

backend = HybridBackend(gpu=get_platform("a100"))
assert backend.prefill_comm_s(get_model("llama2-7b"), 1, 128) > 0
print("loaded:", "repro.offload.engine" in sys.modules)
"""


def _run(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_runs_import_only_what_they_use():
    assert _run(SCRIPT) == ["loaded: []", "imported mid-call: []"]


def test_hybrid_prefill_leaves_the_offload_engine_unloaded():
    assert _run(HYBRID_SCRIPT) == ["loaded: False"]
