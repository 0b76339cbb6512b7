"""Shared, memoized sweeps used by several experiment modules.

Figs. 8, 9 and 10 all slice the same ICL-vs-SPR grid; Figs. 17 and 19
slice the same CPU-vs-GPU grid. Running each grid once and caching keeps
the benchmark harness fast without changing any result.
"""

from typing import Dict, List

from repro.core.runner import CharacterizationSweep, SweepRow, run_inference
from repro.engine.backend import clear_backend_op_caches
from repro.engine.request import EVALUATED_BATCH_SIZES, InferenceRequest
from repro.engine.stepcost import clear_decode_cost_tables
from repro.gemm.efficiency import clear_gemm_efficiency_cache
from repro.hardware.registry import get_platform
from repro.models.opgraph import clear_opgraph_caches
from repro.models.registry import evaluated_models

_CPU_SWEEP_CACHE: List[SweepRow] = []
_GPU_ROWS_CACHE: Dict[int, list] = {}


def cpu_sweep() -> List[SweepRow]:
    """The Figs. 8-10 grid: 8 models x {ICL, SPR} x batches 1-32."""
    if not _CPU_SWEEP_CACHE:
        sweep = CharacterizationSweep(
            [get_platform("icl"), get_platform("spr")],
            evaluated_models(),
            EVALUATED_BATCH_SIZES)
        _CPU_SWEEP_CACHE.extend(sweep.run())
    return _CPU_SWEEP_CACHE


def cpu_gpu_results(batch_size: int):
    """The Figs. 17/19 grid: 8 models x {SPR, A100, H100} at one batch
    of the paper's default request shape.

    Returns ``[(model_name, {platform: result})]`` in figure order.
    """
    if batch_size not in _GPU_ROWS_CACHE:
        spr = get_platform("spr")
        a100 = get_platform("a100")
        h100 = get_platform("h100")
        request = InferenceRequest(batch_size=batch_size)
        rows = []
        for model in evaluated_models():
            per_platform = {}
            for platform in (spr, a100, h100):
                per_platform[platform.name] = run_inference(
                    platform, model, request)
            rows.append((model.name, per_platform))
        _GPU_ROWS_CACHE[batch_size] = rows
    return _GPU_ROWS_CACHE[batch_size]


def clear_caches() -> None:
    """Reset every memoization layer (for tests that tweak calibrations).

    Clears the in-memory sweep caches *and* the pricing-layer caches
    (GEMM efficiency, prefill/decode operator graphs, the serving layer's
    shared step-cost tables) so a subsequent run re-derives everything
    from current calibration constants.

    Every one of these memo tables is **per process**: plain module-level
    dicts, neither shared with nor visible to other processes. Clearing
    them here does not touch the sharded cluster runner's workers (each
    fork/spawn starts its own copy), and conversely a worker warming its
    caches (:func:`repro.cluster.warm_caches`) leaves the parent's
    untouched — fork-inherited pages are copy-on-write snapshots, not
    shared state.
    """
    _CPU_SWEEP_CACHE.clear()
    _GPU_ROWS_CACHE.clear()
    clear_gemm_efficiency_cache()
    clear_opgraph_caches()
    clear_backend_op_caches()
    clear_decode_cost_tables()
