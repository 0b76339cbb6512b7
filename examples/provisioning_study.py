"""Fleet provisioning: buy CPUs or GPUs for a target serving load?

The purchasing decision the paper's comparison ultimately informs. Given
a model, a request rate, and latency SLOs, size the fleet on each
platform (fluid capacity edge, then exact confirmation) and compare the
listing-price cost.

Usage::

    python examples/provisioning_study.py
"""

from repro import get_model, get_platform
from repro.analysis.cost import list_price
from repro.cluster import ReplicaSpec
from repro.engine.inference import MemoryCapacityError
from repro.optim.advisor import size_fleet
from repro.serving import SLO
from repro.utils.formatting import format_table

CASES = [
    ("llama2-7b", 20.0, SLO(ttft_s=1.0, tpot_s=0.08),
     "interactive chat, small model"),
    ("opt-66b", 0.02, SLO(ttft_s=30.0, tpot_s=0.8),
     "batch assistant, over-GPU-capacity model"),
]


def main() -> None:
    platforms = [get_platform("spr"), get_platform("h100")]
    for model_key, rate, slo, label in CASES:
        model = get_model(model_key)
        rows = []
        for platform in platforms:
            replica = ReplicaSpec(platform, model, max_batch=4)
            try:
                rec = size_fleet(replica, rate, slo=slo,
                                 confirm_requests=1200)
            except MemoryCapacityError:
                rows.append([platform.name, "does not fit memory", "-", "-"])
                continue
            confirmed = rec.confirmation
            if confirmed is None or not confirmed.accepted:
                rows.append([platform.name, "no size confirms", "-", "-"])
                continue
            devices = rec.best.config.size
            rows.append([platform.name, devices, confirmed.attainment,
                         f"${devices * list_price(platform.name):,.0f}"])
        print(format_table(
            ["platform", "devices", "simulated attainment", "fleet cost"],
            rows,
            title=f"{label}: {model.name} @ {rate:g} req/s "
                  f"(TTFT<={slo.ttft_s:g}s, TPOT<={slo.tpot_s:g}s)"))
        print()

    print("The paper's Key Finding #4 as a purchasing rule: while the model")
    print("fits GPU memory, CPU and GPU fleets can cost about the same for")
    print("the same load; past that point big-memory CPUs are the only")
    print("feasible in-memory serving fleet.")


if __name__ == "__main__":
    main()
