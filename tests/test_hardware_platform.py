"""Platform composition tests."""

import pytest

from repro.hardware.caches import CacheHierarchy, CacheLevel
from repro.hardware.compute import ComputeEngine, EngineKind, TileShape
from repro.hardware.datatypes import DType
from repro.hardware.memory import MemorySystem, MemoryTechnology, MemoryTier
from repro.hardware.platform import CPUTopology, Platform, PlatformKind
from repro.utils.units import GB, MIB, TFLOPS, gb_per_s


def make_cpu(engines=None):
    engines = engines or [ComputeEngine(
        "AVX", EngineKind.VECTOR, {DType.BF16: 20 * TFLOPS})]
    return Platform(
        name="test-cpu",
        kind=PlatformKind.CPU,
        engines=engines,
        caches=CacheHierarchy([CacheLevel("L3", 100 * MIB, shared=True)]),
        memory=MemorySystem([MemoryTier(
            "DDR", MemoryTechnology.DDR5, 256 * GB, gb_per_s(200))]),
        topology=CPUTopology(cores_per_socket=48, sockets=2),
        stream_efficiency=0.7,
    )


class TestCPUTopology:
    def test_total_cores(self):
        assert CPUTopology(48, 2).total_cores == 96

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            CPUTopology(0, 2)


class TestPlatform:
    def test_cpu_requires_topology(self):
        with pytest.raises(ValueError, match="requires a topology"):
            Platform(
                name="bad",
                kind=PlatformKind.CPU,
                engines=[ComputeEngine("E", EngineKind.VECTOR,
                                       {DType.BF16: TFLOPS})],
                caches=CacheHierarchy([CacheLevel("L3", MIB, shared=True)]),
                memory=MemorySystem([MemoryTier(
                    "DDR", MemoryTechnology.DDR5, GB, gb_per_s(10))]),
            )

    def test_requires_at_least_one_engine(self):
        with pytest.raises(ValueError, match="no compute engines"):
            Platform(
                name="bad",
                kind=PlatformKind.GPU,
                engines=[],
                caches=CacheHierarchy([CacheLevel("L2", MIB, shared=True)]),
                memory=MemorySystem([MemoryTier(
                    "HBM", MemoryTechnology.HBM3, GB, gb_per_s(10))]),
            )

    def test_best_engine_picks_highest_peak(self):
        slow = ComputeEngine("slow", EngineKind.VECTOR,
                             {DType.BF16: 10 * TFLOPS})
        fast = ComputeEngine("fast", EngineKind.MATRIX,
                             {DType.BF16: 100 * TFLOPS},
                             tile=TileShape(16, 16, 32))
        cpu = make_cpu(engines=[slow, fast])
        assert cpu.best_engine(DType.BF16).name == "fast"

    def test_best_engine_respects_dtype_support(self):
        vector = ComputeEngine("vec", EngineKind.VECTOR,
                               {DType.BF16: 10 * TFLOPS,
                                DType.FP32: 5 * TFLOPS})
        amx = ComputeEngine("amx", EngineKind.MATRIX,
                            {DType.BF16: 100 * TFLOPS},
                            tile=TileShape(16, 16, 32))
        cpu = make_cpu(engines=[vector, amx])
        # AMX has no FP32 path: the vector engine must win for FP32.
        assert cpu.best_engine(DType.FP32).name == "vec"

    def test_best_engine_unsupported_dtype_raises(self):
        with pytest.raises(ValueError, match="has no engine for"):
            make_cpu().best_engine(DType.INT8)

    def test_has_matrix_engine(self):
        assert not any(e.kind is EngineKind.MATRIX
                       for e in make_cpu().engines)

    def test_is_cpu_is_gpu(self):
        cpu = make_cpu()
        assert cpu.is_cpu and not cpu.is_gpu

    def test_rejects_bad_stream_efficiency(self):
        with pytest.raises(ValueError, match="stream_efficiency"):
            Platform(
                name="bad",
                kind=PlatformKind.CPU,
                engines=[ComputeEngine("E", EngineKind.VECTOR,
                                       {DType.BF16: TFLOPS})],
                caches=CacheHierarchy([CacheLevel("L3", MIB, shared=True)]),
                memory=MemorySystem([MemoryTier(
                    "DDR", MemoryTechnology.DDR5, GB, gb_per_s(10))]),
                topology=CPUTopology(8, 1),
                stream_efficiency=1.5,
            )
