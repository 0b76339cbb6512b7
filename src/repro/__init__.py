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

A CPU run's placement — NUMA mode and core count — is one backend, e.g.
``run_inference(spr, model, request, NumaBackend(numa=SNC_FLAT, cores=24))``.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core.runner": ("CharacterizationSweep", "run_inference"),
    ".core.report": ("ExperimentReport",),
    ".core.findings": ("check_all_findings",),
    ".core.comparison": ("compare_platforms",),
    ".engine.request": ("InferenceRequest",),
    ".engine.results": ("InferenceResult",),
    ".engine.inference": ("InferenceSimulator", "simulate"),
    ".engine.kvcache": ("KVCacheManager",),
    ".engine.backend": ("NumaBackend",),
    ".gemm.simulator": ("GemmSimulator",),
    ".hardware.datatypes": ("DType",),
    ".hardware.platform": ("Platform",),
    ".hardware.registry": ("all_platforms", "get_platform"),
    ".models.config": ("ModelConfig",),
    ".models.registry": ("all_models", "evaluated_models", "get_model"),
    ".models.memory": ("kv_cache_bytes", "weight_bytes"),
    ".numa.modes": ("NumaConfig", "get_config"),
    ".numa.model": ("NumaModel",),
    ".offload.engine": ("OffloadSimulator",),
    ".perfcounters.collector": ("CounterModel",),
})
__all__.append("__version__")
