"""The runtime needs nothing beyond the standard library.

``pyproject.toml`` lists no runtime dependency, so no ``repro`` module
may import a third-party package. A fresh interpreter imports the public
packages and drives each path that once used numpy — a fleet run, a
tiered fluid solve, an offloaded request (whose decode series and sums
are pure Python) and a two-worker sharded run (whose result columns are
``array`` buffers) — and then checks that numpy never loaded.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = """
import sys

import repro
import repro.cli
import repro.cluster
import repro.experiments
import repro.optim
from repro.cluster import (ClusterConfig, ClusterSimulator, ReplicaSpec,
                           RoundRobinRouter, ShardRouter, fluid, run_sharded)
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.offload.engine import OffloadSimulator
from repro.serving.arrivals import poisson_arrivals
from repro.workloads.classes import DEFAULT_CLASS_MIX

spr, icl = get_platform("spr"), get_platform("icl")
opt = get_model("opt-1.3b")
config = ClusterConfig([ReplicaSpec(spr, opt, count=2, max_batch=4)])
report = ClusterSimulator(config.build_fleet(), RoundRobinRouter()).run(
    poisson_arrivals(4.0, 16, seed=1))
assert len(report.completed) == 16
tiered = ClusterConfig([ReplicaSpec(icl, opt, max_batch=4),
                        ReplicaSpec(spr, get_model("llama2-7b"),
                                    max_batch=4)])
assert fluid.solve(tiered, 0.5, mix=DEFAULT_CLASS_MIX).stations
offload = OffloadSimulator(get_platform("a100")).run(
    get_model("opt-30b"), InferenceRequest(batch_size=4, output_len=64))
assert offload.decode_time_s > 0.0
sharded = run_sharded(config, ShardRouter(2),
                      list(poisson_arrivals(4.0, 16, seed=2)), workers=2)
assert len(sharded.completed) == 16
assert "numpy" not in sys.modules, "numpy was imported"
print("ok")
"""


def test_runtime_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
