"""repro — simulation-based reproduction of *Understanding Performance
Implications of LLM Inference on CPUs* (IISWC 2024).

The library models LLM inference performance on AMX/HBM-equipped CPUs and
A100/H100 GPUs (with FlexGen-style offloading) from first principles:
operator-level roofline composition over exact FLOP/byte counts, with
NUMA, core-scaling, cache, and PCIe models layered on top. See DESIGN.md
for the substitution statement and the per-experiment index.

Quickstart::

    from repro import get_platform, get_model, InferenceRequest, run_inference

    result = run_inference(get_platform("spr"), get_model("llama2-13b"),
                           InferenceRequest(batch_size=8))
    print(result.ttft_s, result.tpot_s, result.e2e_throughput)

NUMA placement is a backend and the core count a keyword, e.g.
``run_inference(spr, model, request, NumaBackend(numa=SNC_FLAT), cores=24)``.
"""

from repro.core import (
    CharacterizationSweep,
    ExperimentReport,
    check_all_findings,
    compare_platforms,
    run_inference,
)
from repro.engine import (
    InferenceRequest,
    InferenceResult,
    InferenceSimulator,
    KVCacheManager,
    NumaBackend,
    simulate,
)
from repro.gemm import GemmSimulator
from repro.hardware import DType, Platform, all_platforms, get_platform
from repro.models import (
    ModelConfig,
    all_models,
    evaluated_models,
    get_model,
    kv_cache_bytes,
    weight_bytes,
)
from repro.numa import NumaConfig, NumaModel, get_config
from repro.offload import OffloadSimulator
from repro.perfcounters import CounterModel
from repro.scaling import CoreScalingModel

__version__ = "1.0.0"

__all__ = [
    "CharacterizationSweep",
    "CoreScalingModel",
    "CounterModel",
    "DType",
    "ExperimentReport",
    "GemmSimulator",
    "InferenceRequest",
    "InferenceResult",
    "InferenceSimulator",
    "KVCacheManager",
    "ModelConfig",
    "NumaBackend",
    "NumaConfig",
    "NumaModel",
    "OffloadSimulator",
    "Platform",
    "all_models",
    "all_platforms",
    "check_all_findings",
    "compare_platforms",
    "evaluated_models",
    "get_config",
    "get_model",
    "get_platform",
    "kv_cache_bytes",
    "run_inference",
    "simulate",
    "weight_bytes",
    "__version__",
]
