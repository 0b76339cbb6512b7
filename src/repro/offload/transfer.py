"""PCIe transfer model for offloading traffic.

Wraps the platform's host link with the offload-specific achieved
efficiency: offloading moves weights layer-by-layer in modest blocks with
staging through pinned buffers, so it sustains a calibrated fraction of
nominal PCIe bandwidth — far less than a single huge cudaMemcpy would.
:func:`gpu_prefill_leg` prices the GPU prefill pass that offloaded and
CPU–GPU hybrid execution share with this model.
"""

import dataclasses
from typing import Tuple

from repro.engine.executor import OperatorExecutor
from repro.hardware.interconnect import Interconnect
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.offload.policy import DEFAULT_OFFLOAD_CALIBRATION, OffloadCalibration
from repro.offload.zigzag import exposed_transfer_time
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


def gpu_prefill_leg(executor: OperatorExecutor, transfer: TransferModel,
                    calibration: OffloadCalibration, model: ModelConfig,
                    batch_size: int, input_len: int,
                    streamed_weight_bytes: float,
                    kv_to_host: bool) -> Tuple[float, float, float]:
    """Price one GPU prefill pass with streamed weights.

    The shared prefill leg of offloaded *and* hybrid execution: GPU
    compute over the executor's backend's prefill graph, non-resident
    weights streamed over PCIe once (overlapped with compute), and —
    when *kv_to_host* is set — the freshly produced prompt K/V moved to
    host memory.
    Returns ``(critical_path_s, transfer_s, compute_s)``; both
    :meth:`repro.offload.engine.OffloadSimulator.run` and
    :meth:`repro.engine.backend.HybridBackend.prefill_comm_s` delegate
    here, so the two paths price the leg identically by construction.
    """
    ops = executor.backend.prefill_ops(model, batch_size, input_len)
    compute = sum(t.time_s for t in executor.time_ops(ops))
    xfer = transfer.time(streamed_weight_bytes,
                         layer_transfers=model.n_layers)
    if kv_to_host:
        kv_written = sum(op.kv_write_bytes for op in ops)
        xfer += transfer.time(kv_written, model.n_layers)
    time_s = compute + exposed_transfer_time(xfer, compute, calibration)
    return time_s, xfer, compute
