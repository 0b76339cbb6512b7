"""Interconnect models: PCIe (CPU<->GPU), UPI (socket<->socket), NVLink.

Offloading-based inference (Section V) is bottlenecked by PCIe: model
weights, activations, and KV cache stream across it on demand. The paper's
Table II lists PCIe 4.0 x16 at 64 GB/s (A100 host link) and PCIe 5.0 x16 at
128 GB/s (H100 host link); achievable copy bandwidth is a calibrated
fraction of that nominal figure (protocol overhead, pinned-buffer staging).

UPI carries inter-socket traffic on the CPU side; its limited bandwidth is
why the 96-core configuration loses to 48 cores (Fig. 16).
"""

import dataclasses

from repro.utils.units import gb_per_s
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class Interconnect:
    """A point-to-point link with nominal bandwidth and achievable efficiency.

    Attributes:
        name: Link identifier.
        nominal_bw: Datasheet bandwidth in bytes/s (both directions summed
            where the datasheet quotes it that way, as the paper's Table II
            does for PCIe).
        efficiency: Fraction of nominal achievable for bulk transfers.
        latency_s: Per-transfer fixed latency (setup + protocol round trip).
    """

    name: str
    nominal_bw: float
    efficiency: float = 1.0
    latency_s: float = 10e-6

    def __post_init__(self) -> None:
        require_positive(self.nominal_bw, f"{self.name} bandwidth")
        if not 0 < self.efficiency <= 1:
            raise ValueError(
                f"{self.name} efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def effective_bw(self) -> float:
        """Achievable bulk-copy bandwidth in bytes/s."""
        return self.nominal_bw * self.efficiency

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move *nbytes* across the link (bulk transfer)."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.effective_bw


def pcie_gen4_x16() -> Interconnect:
    """PCIe 4.0 x16 host link (A100 server in Table II): 64 GB/s nominal.

    The 0.45 efficiency reflects achieved host-to-device copy rates for
    offloading workloads (pageable staging, small-block transfers): FlexGen
    and related systems observe well under half of nominal.
    """
    return Interconnect("PCIe4.0x16", gb_per_s(64.0), 0.45)


def pcie_gen5_x16() -> Interconnect:
    """PCIe 5.0 x16 host link (H100 server in Table II): 128 GB/s nominal."""
    return Interconnect("PCIe5.0x16", gb_per_s(128.0), 0.45)


def upi_link() -> Interconnect:
    """Intel UPI inter-socket link group (3 links x ~16 GT/s ≈ 62.4 GB/s)."""
    return Interconnect("UPI", gb_per_s(62.4), 0.8, latency_s=0.5e-6)


def nvlink_c2c() -> Interconnect:
    """Grace-Hopper NVLink-C2C (900 GB/s), mentioned in Section V-B."""
    return Interconnect("NVLink-C2C", gb_per_s(900.0), 0.85)
