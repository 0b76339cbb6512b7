"""Experiment harness: one registered runner per paper table/figure.

Importing this package registers every experiment; use
``run_experiment("fig8")`` or ``run_all_experiments()``.
"""

# The one package that imports its members eagerly (the others export
# lazily through repro.lazy): importing each experiment module is what
# registers it, and run_experiment reads the registry.
from repro.experiments import (  # noqa: F401
    ablations,
    ext_backends,
    ext_cluster,
    ext_disagg_tenancy,
    ext_fairness,
    ext_fleetmix,
    ext_future,
    ext_kernels_cache,
    ext_memory_decode,
    ext_moe,
    ext_parallel_sched,
    ext_pp_slo,
    ext_provisioning,
    ext_serving,
    ext_tiering,
    ext_trace,
    fig01_gemm,
    fig06_model_footprint,
    fig07_kv_footprint,
    fig08_icl_vs_spr,
    fig09_phase_latency,
    fig10_phase_throughput,
    fig11_12_counters_batch,
    fig13_numa_modes,
    fig14_core_scaling,
    fig15_counters_numa,
    fig16_counters_cores,
    fig17_19_cpu_gpu,
    fig18_offload_breakdown,
    fig20_21_seqlen,
    key_findings,
    sec6_optim,
    tables,
    whatif,
)
from repro.experiments.base import (
    all_experiment_ids,
    run_all_experiments,
    run_experiment,
)

__all__ = [
    "all_experiment_ids",
    "run_all_experiments",
    "run_experiment",
]
