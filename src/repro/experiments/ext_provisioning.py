"""Extension: fleet provisioning under SLOs.

The deployment-level synthesis of Key Finding #4. Each (model, platform)
row is sized by :func:`repro.optim.advisor.size_fleet`: the fluid
capacity edge of one replica picks the smallest fleet that is not
overloaded, the fluid solver ranks that fleet and the next three, and
the exact simulator confirms the winner. For a small in-memory model the
CPU and GPU fleets come out at about the same listing price; a model
that does not fit GPU memory leaves big-memory CPU sockets as the only
feasible fleet — the paper's comparison converted into a purchasing
decision.
"""

from repro.analysis.cost import list_price
from repro.cluster.config import ClusterConfig, ReplicaSpec
from repro.cluster.fluid import saturation_rate
from repro.core.report import ExperimentReport
from repro.engine.inference import MemoryCapacityError
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.optim.advisor import size_fleet
from repro.serving.slo import SLO

#: Fleet prices closer than this fraction of the cheaper one are a tie.
TIE_FRACTION = 0.02


def _size(platform, model, rate, slo):
    """One table row, and a note when the row needs explaining."""
    replica = ReplicaSpec(platform=platform, model=model, max_batch=4)
    try:
        per_device = saturation_rate(ClusterConfig((replica,)), slo=slo)
    except MemoryCapacityError:
        return ([model.name, rate, platform.name, 0.0, "-", "-", "-"],
                f"{model.name} does not fit {platform.name} memory, so the "
                "in-memory fleet model refuses it")
    rec = size_fleet(replica, rate, slo=slo, confirm_requests=1200)
    confirmed = rec.confirmation
    if confirmed is None or not confirmed.accepted:
        return ([model.name, rate, platform.name, per_device, "-", "-", "-"],
                f"no {platform.name} fleet size tried confirms at "
                f"{rate:g} req/s")
    devices = rec.best.config.size
    row = [model.name, rate, platform.name, per_device, devices,
           devices * list_price(platform.name), confirmed.attainment]
    rejected = [c for c in rec.confirmations if not c.accepted]
    note = None
    if rejected:
        note = "; ".join(
            f"fluid ranks {c.label} first but the simulator measures "
            f"{c.attainment:.1%} attainment" for c in rejected) + (
            f", so {rec.best.label} is confirmed at "
            f"{confirmed.attainment:.1%}")
    return row, note


def _verdict(model_name, rows):
    """The purchasing decision for one model, read off its rows."""
    feasible = [row for row in rows if row[4] != "-"]
    if not feasible:
        return f"{model_name}: no platform meets the SLO"
    if len(feasible) == 1:
        return (f"{model_name}: only {feasible[0][2]} is feasible, so it "
                "wins the purchasing decision")
    fleets = " vs ".join(f"{row[4]}x {row[2]} ${row[5]:,.0f}"
                         for row in feasible)
    gap = feasible[1][5] / feasible[0][5] - 1.0
    if gap <= TIE_FRACTION:
        return (f"{model_name}: {fleets} — a tie ({gap:.1%} apart) once "
                "each fleet size is exact-confirmed")
    return f"{model_name}: {fleets} — {feasible[0][2]} is cheapest"


@register("ext_provisioning")
def run() -> ExperimentReport:
    """Fleet sizing for a small and a large model under serving SLOs."""
    platforms = [get_platform("spr"), get_platform("h100")]
    cases = [
        ("llama2-7b", 20.0, SLO(ttft_s=1.0, tpot_s=0.08)),
        ("opt-66b", 0.02, SLO(ttft_s=30.0, tpot_s=0.8)),
    ]
    rows = []
    verdicts = []
    details = []
    for model_key, rate, slo in cases:
        model = get_model(model_key)
        sized = [_size(platform, model, rate, slo)
                 for platform in platforms]
        model_rows = sorted((row for row, _ in sized), key=lambda row: (
            row[5] if row[4] != "-" else float("inf")))
        rows.extend(model_rows)
        verdicts.append(_verdict(model.name, model_rows))
        details.extend(note for _, note in sized if note)
    return ExperimentReport(
        experiment_id="ext_provisioning",
        title="Fleet provisioning under SLOs (listing-price proxies)",
        headers=["model", "target req/s", "platform", "rate/device",
                 "devices", "fleet $", "confirmed attainment"],
        rows=rows,
        notes=verdicts + details,
    )
