"""Capacity planning: which platform should serve a given model?

The paper's practical question (Sections III and V): once a model's
weights + KV cache exceed GPU memory, is an offloading GPU or an
AMX/HBM CPU the better server? This example sizes the footprint, checks
each platform, and recommends.

Usage::

    python examples/capacity_planning.py [model] [batch]

e.g. ``python examples/capacity_planning.py opt-66b 4``.
"""

import sys

from repro import (
    InferenceRequest,
    all_platforms,
    get_model,
    run_inference,
)
from repro.core.runner import is_offloaded
from repro.engine.backend import BaselineBackend
from repro.utils.formatting import format_table
from repro.utils.units import bytes_to_gb


def main() -> None:
    model_key = sys.argv[1] if len(sys.argv) > 1 else "opt-66b"
    batch = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    model = get_model(model_key)
    request = InferenceRequest(batch_size=batch, input_len=128, output_len=32)

    base = BaselineBackend()
    footprint = base.footprint_bytes(model, request)
    kv = (base.kv_bytes_per_token(model) * request.max_seq_len
          * request.batch_size)
    print(f"{model.name} @ batch {batch}: footprint "
          f"{bytes_to_gb(footprint):.1f} GB "
          f"(KV cache {bytes_to_gb(kv):.1f} GB)")
    print()

    rows = []
    best = None
    for platform in all_platforms().values():
        try:
            result = run_inference(platform, model, request)
        except Exception as error:
            rows.append([platform.name, "-", "-", "-",
                         f"infeasible: {error}"])
            continue
        mode = "offload" if is_offloaded(result) else "in-memory"
        rows.append([platform.name, mode, result.e2e_s,
                     result.e2e_throughput, ""])
        if best is None or result.e2e_s < best[1]:
            best = (platform.name, result.e2e_s)

    print(format_table(
        ["platform", "mode", "E2E s", "tokens/s", "note"], rows))
    print()
    print(f"Recommendation: serve {model.name} on {best[0]} "
          f"({best[1]:.1f}s end-to-end for this request).")
    print("Rule of thumb from the paper: once a GPU must offload over PCIe,")
    print("an AMX+HBM CPU usually wins at small batch and short sequences.")


if __name__ == "__main__":
    main()
