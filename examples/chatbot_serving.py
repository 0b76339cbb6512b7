"""Scenario study: chatbot vs translation vs batch analytics.

Section II-C motivates the paper's three metrics with three serving
scenarios. This example generates a synthetic request stream for each
scenario, serves it on the ICL CPU, the SPR CPU and the H100, and scores
each platform on the metric that scenario actually cares about.

Usage::

    python examples/chatbot_serving.py
"""

from repro import get_model, get_platform
from repro.utils.formatting import format_table
from repro.workloads import (
    batch_analytics_workload,
    chatbot_workload,
    generate_requests,
    serve,
    translation_workload,
)

PLATFORM_KEYS = ("icl", "spr", "h100")
REQUESTS_PER_SCENARIO = 6
SEED = 42


def main() -> None:
    model = get_model("llama2-13b")
    scenarios = [chatbot_workload(), translation_workload(),
                 batch_analytics_workload()]

    for spec in scenarios:
        requests = generate_requests(spec, REQUESTS_PER_SCENARIO, seed=SEED)
        rows = []
        for key in PLATFORM_KEYS:
            stats = serve(get_platform(key), model, requests)
            rows.append([
                stats.platform,
                stats.mean_ttft_s * 1000,
                stats.mean_tpot_s * 1000,
                stats.throughput,
                stats.p99_ttft_s * 1000,
            ])
        print(format_table(
            ["platform", "mean TTFT ms", "mean TPOT ms", "tokens/s",
             "p99 TTFT ms"],
            rows,
            title=f"scenario: {spec.name} (priority: {spec.priority_metric})"))
        print()

    print("Takeaway (paper Section II-C): no single metric ranks platforms —")
    print("a TTFT-critical chatbot values prefill compute (AMX/tensor cores),")
    print("a TPOT-critical translator values memory bandwidth, and offline")
    print("analytics only cares about aggregate tokens/second.")


if __name__ == "__main__":
    main()
