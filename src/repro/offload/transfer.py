"""PCIe transfer model for offloading traffic.

Wraps the platform's host link with the offload-specific achieved
efficiency: offloading moves weights layer-by-layer in modest blocks with
staging through pinned buffers, so it sustains a calibrated fraction of
nominal PCIe bandwidth — far less than a single huge cudaMemcpy would.
"""

import dataclasses

from repro.hardware.interconnect import Interconnect
from repro.hardware.platform import Platform
from repro.offload.policy import DEFAULT_OFFLOAD_CALIBRATION, OffloadCalibration
from repro.utils.validation import require_non_negative


@dataclasses.dataclass(frozen=True)
class TransferModel:
    """Prices PCIe transfers for one GPU's host link.

    Attributes:
        link: The platform's host interconnect.
        efficiency: Achieved fraction of nominal bandwidth.
    """

    link: Interconnect
    efficiency: float
    #: Fixed cost per layer-granular transfer (submission + completion
    #: signaling).
    per_layer_latency_s = 15e-6

    @property
    def effective_bw(self) -> float:
        """Achieved offloading bandwidth, bytes/s."""
        return self.link.nominal_bw * self.efficiency

    def time(self, nbytes: float, layer_transfers: int = 1) -> float:
        """Seconds to move *nbytes* split across *layer_transfers* blocks."""
        require_non_negative(nbytes, "nbytes")
        require_non_negative(layer_transfers, "layer_transfers")
        if nbytes == 0:
            return 0.0
        return (nbytes / self.effective_bw
                + layer_transfers * self.per_layer_latency_s)


def transfer_model_for(gpu: Platform,
                       calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> TransferModel:
    """Build the transfer model from a GPU platform's host link."""
    if gpu.host_link is None:
        raise ValueError(f"{gpu.name} has no host link configured")
    return TransferModel(link=gpu.host_link,
                         efficiency=calibration.pcie_efficiency)
