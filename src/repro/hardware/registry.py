"""Registry of the four evaluated platforms (paper Tables I and II).

All numbers are taken verbatim from the paper:

========================  =============================  ==========================
Component                 CPU 1 (ICL 8352Y)              CPU 2 (SPR Max 9468)
========================  =============================  ==========================
Frequency                 2.20 GHz                       2.10 GHz
BF16 compute              18.0 TFLOPS (AVX-512)          25.6 (AVX-512) / 206.4 (AMX)
Cores / sockets           32 x 2                         48 x 2
L1D / L2 (per core)       48 KB / 1.25 MB                48 KB / 2 MB
L3 (per socket)           48 MB                          105 MB
Memory                    DDR4 256 GB                    DDR5 512 GB + HBM 128 GB
STREAM BW (1 socket)      156.2 GB/s                     DDR5 233.8 / HBM 588 GB/s
========================  =============================  ==========================

========================  ==================  ===================
Component                 A100                H100
========================  ==================  ===================
SMs                       108                 132
BF16 compute (dense)      312 TFLOPS          756 TFLOPS
L1 / L2                   192 KB / 40 MB      256 KB / 50 MB
Memory                    40 GB               80 GB
STREAM BW                 1299.9 GB/s         1754.4 GB/s
Host link                 PCIe 4.0, 64 GB/s   PCIe 5.0, 128 GB/s
========================  ==================  ===================

CPU platform objects describe a **single socket** (the paper's tuned
configuration pins to one socket; see Key Finding #3); the two-socket
behaviour is derived by :mod:`repro.scaling`.
"""

from typing import Dict

from repro.hardware.caches import CacheHierarchy, CacheLevel
from repro.hardware.compute import ComputeEngine, EngineKind, TileShape
from repro.hardware.datatypes import DType
from repro.hardware.interconnect import pcie_gen4_x16, pcie_gen5_x16
from repro.hardware.memory import MemorySystem, MemoryTechnology, MemoryTier
from repro.hardware.platform import CPUTopology, Platform, PlatformKind
from repro.utils.units import GB, KIB, MIB, TFLOPS, gb_per_s

# Kernel-level fraction of STREAM bandwidth sustained by inference GEMV /
# attention kernels. CPUs lose more to read-for-ownership and prefetch gaps
# than GPUs do, and the ICL generation (older prefetchers, DDR4, no
# tile-friendly blocking) sustains a lower fraction than SPR. All three are
# calibration constants (see DESIGN.md §5).
ICL_STREAM_EFFICIENCY = 0.55
SPR_STREAM_EFFICIENCY = 0.72
GPU_STREAM_EFFICIENCY = 0.85

# AMX BF16 native tile: TDPBF16PS consumes A(16x32) x B(32x16).
AMX_TILE_BF16 = TileShape(m=16, n=16, k=32)


def _icl_cpu() -> Platform:
    """Intel Xeon 3rd-gen (Ice Lake) 8352Y, one socket, 32 cores."""
    avx512 = ComputeEngine(
        name="AVX-512",
        kind=EngineKind.VECTOR,
        peak_flops={
            DType.BF16: 18.0 * TFLOPS,
            DType.FP32: 9.0 * TFLOPS,
            DType.INT8: 36.0 * TFLOPS,  # VNNI
        },
    )
    caches = CacheHierarchy(levels=[
        CacheLevel("L1D", 48 * KIB * 32, shared=False),
        CacheLevel("L2", 1.25 * MIB * 32, shared=False),
        CacheLevel("L3", 48 * MIB, shared=True),
    ])
    # Capacity is the full server's 256 GB: numactl can map the remote
    # socket's DRAM while computing on one socket (how OPT-66B, 131 GB of
    # BF16 weights, runs on this box at all).
    memory = MemorySystem(tiers=[
        MemoryTier("DDR4", MemoryTechnology.DDR4,
                   capacity_bytes=256 * GB, sustained_bw=gb_per_s(156.2)),
    ])
    return Platform(
        name="ICL-8352Y",
        kind=PlatformKind.CPU,
        engines=[avx512],
        caches=caches,
        memory=memory,
        topology=CPUTopology(cores_per_socket=32, sockets=2,
                             base_frequency_hz=2.2e9),
        stream_efficiency=ICL_STREAM_EFFICIENCY,
    )


def _spr_cpu() -> Platform:
    """Intel Xeon 4th-gen (Sapphire Rapids) Max 9468, one socket, 48 cores."""
    avx512 = ComputeEngine(
        name="AVX-512",
        kind=EngineKind.VECTOR,
        peak_flops={
            DType.BF16: 25.6 * TFLOPS,
            DType.FP32: 12.8 * TFLOPS,
            DType.INT8: 51.2 * TFLOPS,
        },
    )
    amx = ComputeEngine(
        name="AMX",
        kind=EngineKind.MATRIX,
        peak_flops={
            DType.BF16: 206.4 * TFLOPS,
            DType.INT8: 412.8 * TFLOPS,
        },
        tile=AMX_TILE_BF16,
    )
    caches = CacheHierarchy(levels=[
        CacheLevel("L1D", 48 * KIB * 48, shared=False),
        CacheLevel("L2", 2 * MIB * 48, shared=False),
        CacheLevel("L3", 105 * MIB, shared=True),
    ])
    memory = MemorySystem(tiers=[
        MemoryTier("HBM", MemoryTechnology.HBM_FLAT,
                   capacity_bytes=64 * GB, sustained_bw=gb_per_s(588.0)),
        MemoryTier("DDR5", MemoryTechnology.DDR5,
                   capacity_bytes=256 * GB, sustained_bw=gb_per_s(233.8)),
    ])
    return Platform(
        name="SPR-Max-9468",
        kind=PlatformKind.CPU,
        engines=[avx512, amx],
        caches=caches,
        memory=memory,
        topology=CPUTopology(cores_per_socket=48, sockets=2,
                             base_frequency_hz=2.1e9),
        stream_efficiency=SPR_STREAM_EFFICIENCY,
    )


def _a100() -> Platform:
    """NVIDIA A100-40GB (PCIe host link per Table II)."""
    tensor = ComputeEngine(
        name="TensorCore-A100",
        kind=EngineKind.GPU_TENSOR,
        peak_flops={
            DType.BF16: 312.0 * TFLOPS,
            DType.FP16: 312.0 * TFLOPS,
            DType.FP32: 19.5 * TFLOPS,
            DType.INT8: 624.0 * TFLOPS,
        },
        launch_overhead_s=8e-6,
    )
    caches = CacheHierarchy(levels=[
        CacheLevel("L1", 192 * KIB * 108, shared=False),
        CacheLevel("L2", 40 * MIB, shared=True),
    ])
    memory = MemorySystem(tiers=[
        MemoryTier("HBM2e", MemoryTechnology.HBM2E,
                   capacity_bytes=40 * GB, sustained_bw=gb_per_s(1299.9)),
    ])
    return Platform(
        name="A100-40GB",
        kind=PlatformKind.GPU,
        engines=[tensor],
        caches=caches,
        memory=memory,
        host_link=pcie_gen4_x16(),
        stream_efficiency=GPU_STREAM_EFFICIENCY,
        sms=108,
    )


def _h100() -> Platform:
    """NVIDIA H100-80GB (PCIe host link per Table II)."""
    tensor = ComputeEngine(
        name="TensorCore-H100",
        kind=EngineKind.GPU_TENSOR,
        peak_flops={
            DType.BF16: 756.0 * TFLOPS,
            DType.FP16: 756.0 * TFLOPS,
            DType.FP32: 51.0 * TFLOPS,
            DType.INT8: 1512.0 * TFLOPS,
        },
        launch_overhead_s=8e-6,
    )
    caches = CacheHierarchy(levels=[
        CacheLevel("L1", 256 * KIB * 132, shared=False),
        CacheLevel("L2", 50 * MIB, shared=True),
    ])
    memory = MemorySystem(tiers=[
        MemoryTier("HBM3", MemoryTechnology.HBM3,
                   capacity_bytes=80 * GB, sustained_bw=gb_per_s(1754.4)),
    ])
    return Platform(
        name="H100-80GB",
        kind=PlatformKind.GPU,
        engines=[tensor],
        caches=caches,
        memory=memory,
        host_link=pcie_gen5_x16(),
        stream_efficiency=GPU_STREAM_EFFICIENCY,
        sms=132,
    )


_BUILDERS = {
    "icl": _icl_cpu,
    "icl-8352y": _icl_cpu,
    "spr": _spr_cpu,
    "spr-max-9468": _spr_cpu,
    "a100": _a100,
    "a100-40gb": _a100,
    "h100": _h100,
    "h100-80gb": _h100,
}


def get_platform(name: str) -> Platform:
    """Build a platform by name (case-insensitive; aliases accepted).

    Accepted names: ``icl``, ``spr``, ``a100``, ``h100`` plus their full
    model-number aliases.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown platform {name!r}; known: {sorted(set(_BUILDERS))}")
    return _BUILDERS[key]()


def all_platforms() -> Dict[str, Platform]:
    """All four evaluated platforms, keyed by canonical short name."""
    return {
        "icl": _icl_cpu(),
        "spr": _spr_cpu(),
        "a100": _a100(),
        "h100": _h100(),
    }
