"""Speculative decoding on the CPU (extension of the paper's decode analysis).

Decode on the SPR CPU is memory-bound: each token streams every weight
byte. Speculative decoding (SpecInfer, paper ref [37]) verifies several
draft tokens in one target pass, amortizing that stream. This example
sweeps draft lengths and acceptance rates for three targets.

Usage::

    python examples/speculative_decoding.py
"""

from repro import get_model, get_platform
from repro.specdecode import SpecDecodeConfig, SpeculativeDecoder
from repro.utils.formatting import format_table


def main() -> None:
    spr = get_platform("spr")
    draft = get_model("opt-1.3b")

    rows = []
    for target_key in ("opt-13b", "opt-30b", "opt-66b"):
        target = get_model(target_key)
        for alpha in (0.6, 0.8, 0.9):
            decoder = SpeculativeDecoder(
                spr, target, draft,
                SpecDecodeConfig(gamma=4, acceptance_rate=alpha))
            estimate = decoder.estimate()
            rows.append([
                target.name, alpha,
                estimate.baseline_tpot_s * 1000,
                estimate.effective_tpot_s * 1000,
                estimate.speedup,
                decoder.best_gamma(),
            ])
    print(format_table(
        ["target", "accept rate", "baseline TPOT ms", "spec TPOT ms",
         "speedup", "best gamma"],
        rows,
        title="Speculative decoding on SPR Max (draft: OPT-1.3B, gamma=4)"))
    print()
    print("The bigger the target, the bigger the win: OPT-66B streams")
    print("132 GB of weights per token, so letting one verification pass")
    print("cover ~3 tokens is nearly a 3x TPOT cut. Higher acceptance")
    print("rates justify longer drafts (see the best-gamma column).")


if __name__ == "__main__":
    main()
