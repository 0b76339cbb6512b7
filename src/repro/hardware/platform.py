"""Platform composition: CPUs and GPUs assembled from hardware components.

A :class:`Platform` is the unit the inference simulator executes against:
it bundles compute engines, the cache hierarchy, the memory system, and (for
GPUs) the host interconnect used by offloading. CPU platforms additionally
describe their socket/core topology so the NUMA and core-scaling models can
derive per-configuration behaviour.
"""

import dataclasses
import enum
from typing import List, Optional

from repro.hardware.caches import CacheHierarchy
from repro.hardware.compute import ComputeEngine
from repro.hardware.datatypes import DType
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import MemorySystem
from repro.utils.validation import require_positive


class PlatformKind(enum.Enum):
    """Broad device class."""

    CPU = "cpu"
    GPU = "gpu"


@dataclasses.dataclass(frozen=True)
class CPUTopology:
    """Socket/core layout of a CPU server.

    Attributes:
        cores_per_socket: Physical cores per socket.
        sockets: Number of sockets in the server.
        base_frequency_hz: Nominal core frequency.
    """

    cores_per_socket: int
    sockets: int
    base_frequency_hz: float = 2.1e9

    def __post_init__(self) -> None:
        require_positive(self.cores_per_socket, "cores_per_socket")
        require_positive(self.sockets, "sockets")
        require_positive(self.base_frequency_hz, "base_frequency_hz")

    @property
    def total_cores(self) -> int:
        """All physical cores in the server."""
        return self.cores_per_socket * self.sockets


@dataclasses.dataclass(frozen=True)
class Platform:
    """A complete execution platform (one CPU socket-set or one GPU).

    Compute engine specs and memory bandwidths describe a **single socket**
    for CPUs (the paper pins inference to one socket for its main results)
    and the whole device for GPUs. The scaling model derives other core
    counts from the single-socket spec.

    Attributes:
        name: Platform identifier ("SPR-Max-9468", "A100-40GB", ...).
        kind: CPU or GPU.
        engines: Available compute engines, e.g. [AVX-512, AMX] on SPR.
        caches: Cache hierarchy for the modeled allocation.
        memory: Memory tiers attached to the allocation.
        topology: Socket/core layout (CPU only).
        host_link: PCIe link to host memory (GPU only; used by offloading).
        stream_efficiency: Fraction of STREAM bandwidth that fused inference
            kernels actually sustain. GPUs run closer to STREAM than CPUs
            because GEMV kernels on CPUs lose bandwidth to prefetch gaps and
            read-for-ownership traffic. Calibrated per platform.
        sms: Streaming multiprocessor count (GPU only; informational).
    """

    name: str
    kind: PlatformKind
    engines: List[ComputeEngine]
    caches: CacheHierarchy
    memory: MemorySystem
    topology: Optional[CPUTopology] = None
    host_link: Optional[Interconnect] = None
    stream_efficiency: float = 0.8
    sms: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.engines:
            raise ValueError(f"platform {self.name!r} has no compute engines")
        if self.kind is PlatformKind.CPU and self.topology is None:
            raise ValueError(f"CPU platform {self.name!r} requires a topology")
        if not 0 < self.stream_efficiency <= 1:
            raise ValueError(
                f"{self.name} stream_efficiency must be in (0, 1], "
                f"got {self.stream_efficiency}")

    @property
    def is_cpu(self) -> bool:
        """True for CPU platforms."""
        return self.kind is PlatformKind.CPU

    @property
    def is_gpu(self) -> bool:
        """True for GPU platforms."""
        return self.kind is PlatformKind.GPU

    def engines_for(self, dtype: DType) -> List[ComputeEngine]:
        """The engines supporting *dtype*, in platform order.

        Raises ValueError if there is none: every check of whether a
        platform can run a dtype goes through here.
        """
        engines = [e for e in self.engines if e.supports(dtype)]
        if not engines:
            raise ValueError(f"{self.name} has no engine for {dtype}")
        return engines

    def best_engine(self, dtype: DType) -> ComputeEngine:
        """The highest-peak engine supporting *dtype*.

        On SPR this picks AMX over AVX-512 for BF16/INT8 — mirroring IPEX,
        which dispatches GEMMs to AMX whenever the dtype allows.
        """
        return max(self.engines_for(dtype), key=lambda e: e.peak(dtype))

    def peak_flops(self, dtype: DType) -> float:
        """Peak FLOP/s across engines for *dtype*."""
        return self.best_engine(dtype).peak(dtype)

    @property
    def memory_capacity(self) -> float:
        """Total local memory capacity in bytes."""
        return self.memory.total_capacity

    @property
    def peak_memory_bandwidth(self) -> float:
        """STREAM bandwidth of the fastest local tier, bytes/s."""
        return self.memory.fastest.sustained_bw
