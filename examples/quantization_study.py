"""Quantization design-space walkthrough on the SPR CPU.

Decode is bandwidth-bound (the paper's central decode claim), so weight
bytes translate ~directly into TPOT. This example walks the
{BF16, W8, W4} x {BF16-KV, INT8-KV} space for a model that fits HBM and
one that spills to DDR, showing both the proportional gains and the
capacity effect (quantization pulling a model back inside HBM).

Usage::

    python examples/quantization_study.py
"""

from repro import (
    DType,
    InferenceRequest,
    InferenceSimulator,
    get_model,
    get_platform,
    simulate,
)
from repro.engine.backend import QuantizedBackend
from repro.quant import QuantConfig, QuantScheme
from repro.utils.formatting import format_table
from repro.utils.units import bytes_to_gb

SCHEMES = [
    ("bf16", None),
    ("w8", QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8)),
    ("w4", QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4)),
    ("w8+kv8", QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8,
                           kv_dtype=DType.INT8)),
    ("w4+kv8", QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4,
                           kv_dtype=DType.INT8)),
]


def main() -> None:
    spr = get_platform("spr")
    hbm_gb = bytes_to_gb(spr.memory.tier("HBM").capacity_bytes)
    request = InferenceRequest(batch_size=1, input_len=2048, output_len=8)

    for model_key in ("llama2-13b", "opt-66b"):
        model = get_model(model_key)
        rows = []
        for label, quant in SCHEMES:
            if quant is None:
                result = simulate(spr, model, request)
                footprint = None
            else:
                backend = QuantizedBackend(quant)
                footprint = backend.footprint_bytes(model, request)
                result = InferenceSimulator(spr, backend=backend).run(
                    model, request)
            rows.append([
                label,
                bytes_to_gb(footprint) if footprint else "-",
                result.ttft_s * 1000,
                result.tpot_s * 1000,
            ])
        print(format_table(
            ["scheme", "footprint GB", "TTFT ms", "TPOT ms"], rows,
            title=f"{model.name} on SPR (input 2048), HBM = {hbm_gb:.0f} GB"))
        print()

    print("Two effects stack: fewer bytes per step (proportional), and —")
    print("for OPT-66B — the quantized footprint fitting back inside HBM")
    print("(a bandwidth-tier jump worth more than the byte ratio alone).")


if __name__ == "__main__":
    main()
