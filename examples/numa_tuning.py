"""NUMA and core-count tuning on the SPR Max CPU (paper Section IV).

Sweeps the four memory x clustering configurations and the four core
counts for a chosen model, then prints the best server configuration —
the procedure behind Key Findings #2 and #3, packaged as a tool.

Usage::

    python examples/numa_tuning.py [model] [batch]
"""

import sys

from repro import InferenceRequest, NumaBackend, get_model, get_platform
from repro.engine.inference import InferenceSimulator
from repro.numa.modes import EVALUATED_CONFIGS
from repro.scaling.cores import EVALUATED_CORE_COUNTS
from repro.utils.formatting import format_table


def main() -> None:
    model_key = sys.argv[1] if len(sys.argv) > 1 else "llama2-13b"
    batch = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    spr = get_platform("spr")
    model = get_model(model_key)
    request = InferenceRequest(batch_size=batch)

    numa_rows = []
    for numa in EVALUATED_CONFIGS:
        result = InferenceSimulator(
            spr, NumaBackend(numa=numa)).run(model, request)
        numa_rows.append([numa.label, result.ttft_s * 1000,
                          result.tpot_s * 1000, result.e2e_s,
                          result.e2e_throughput])
    print(format_table(
        ["config", "TTFT ms", "TPOT ms", "E2E s", "tokens/s"], numa_rows,
        title=f"NUMA sweep: {model.name}, batch={batch}, 48 cores"))
    best_numa = min(numa_rows, key=lambda row: row[3])[0]
    print(f"  -> best NUMA config: {best_numa} (paper: quad_flat)")
    print()

    core_rows = []
    for cores in EVALUATED_CORE_COUNTS:
        result = InferenceSimulator(spr, cores=cores).run(model, request)
        core_rows.append([cores, result.ttft_s * 1000,
                          result.tpot_s * 1000, result.e2e_s,
                          result.e2e_throughput])
    print(format_table(
        ["cores", "TTFT ms", "TPOT ms", "E2E s", "tokens/s"], core_rows,
        title=f"core sweep: {model.name}, batch={batch}, quad_flat"))
    best_cores = min(core_rows, key=lambda row: row[3])[0]
    print(f"  -> best core count: {best_cores} (paper: 48; 96 pays UPI tax)")


if __name__ == "__main__":
    main()
