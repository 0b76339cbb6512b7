"""Platform-registry tests: Table I/II numbers must be encoded verbatim."""

import pytest

from repro.hardware.datatypes import DType
from repro.hardware.compute import EngineKind
from repro.hardware.registry import all_platforms, get_platform
from repro.utils.units import GB, TFLOPS, gb_per_s


class TestLookup:
    @pytest.mark.parametrize("name", ["icl", "spr", "a100", "h100",
                                      "ICL-8352Y", "SPR-Max-9468"])
    def test_known_names(self, name):
        assert get_platform(name) is not None

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown platform"):
            get_platform("m2-ultra")

    def test_all_platforms_has_four(self):
        assert set(all_platforms()) == {"icl", "spr", "a100", "h100"}

    def test_fresh_instances_per_call(self):
        assert get_platform("spr") is not get_platform("spr")


class TestTable1Numbers:
    def test_icl_bf16_peak(self):
        assert get_platform("icl").peak_flops(DType.BF16) == pytest.approx(
            18.0 * TFLOPS)

    def test_spr_amx_peak(self):
        spr = get_platform("spr")
        assert spr.peak_flops(DType.BF16) == pytest.approx(206.4 * TFLOPS)

    def test_spr_avx_peak(self):
        avx = next(e for e in get_platform("spr").engines
                   if e.name == "AVX-512")
        assert avx.peak(DType.BF16) == pytest.approx(25.6 * TFLOPS)

    def test_spr_amx_int8_is_double_bf16(self):
        amx = next(e for e in get_platform("spr").engines
                   if e.name == "AMX")
        assert amx.peak(DType.INT8) == pytest.approx(2 * amx.peak(DType.BF16))

    def test_core_counts(self):
        assert get_platform("icl").topology.cores_per_socket == 32
        assert get_platform("spr").topology.cores_per_socket == 48

    def test_stream_bandwidths(self):
        assert get_platform("icl").peak_memory_bandwidth == pytest.approx(
            gb_per_s(156.2))
        spr = get_platform("spr")
        assert spr.memory.tier("HBM").sustained_bw == pytest.approx(
            gb_per_s(588.0))
        assert spr.memory.tier("DDR5").sustained_bw == pytest.approx(
            gb_per_s(233.8))

    def test_spr_hbm_capacity_per_socket(self):
        assert get_platform("spr").memory.tier("HBM").capacity_bytes == \
            pytest.approx(64 * GB)

    def test_spr_has_amx(self):
        assert any(e.kind is EngineKind.MATRIX
                   for e in get_platform("spr").engines)

    def test_icl_has_no_amx(self):
        assert not any(e.kind is EngineKind.MATRIX
                       for e in get_platform("icl").engines)

    def test_llc_sizes(self):
        assert get_platform("icl").caches.llc.capacity_bytes == \
            pytest.approx(48 * 1024 ** 2)
        assert get_platform("spr").caches.llc.capacity_bytes == \
            pytest.approx(105 * 1024 ** 2)


class TestTable2Numbers:
    def test_a100_peak(self):
        assert get_platform("a100").peak_flops(DType.BF16) == pytest.approx(
            312.0 * TFLOPS)

    def test_h100_peak(self):
        assert get_platform("h100").peak_flops(DType.BF16) == pytest.approx(
            756.0 * TFLOPS)

    def test_gpu_memory_capacities(self):
        assert get_platform("a100").memory_capacity == pytest.approx(40 * GB)
        assert get_platform("h100").memory_capacity == pytest.approx(80 * GB)

    def test_gpu_bandwidths(self):
        assert get_platform("a100").peak_memory_bandwidth == pytest.approx(
            gb_per_s(1299.9))
        assert get_platform("h100").peak_memory_bandwidth == pytest.approx(
            gb_per_s(1754.4))

    def test_host_links(self):
        assert get_platform("a100").host_link.nominal_bw == pytest.approx(
            gb_per_s(64.0))
        assert get_platform("h100").host_link.nominal_bw == pytest.approx(
            gb_per_s(128.0))

    def test_sm_counts(self):
        assert get_platform("a100").sms == 108
        assert get_platform("h100").sms == 132
