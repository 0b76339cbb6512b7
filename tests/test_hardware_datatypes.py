"""Datatype tests."""

import pytest

from repro.hardware.datatypes import DType, parse_dtype


class TestDType:
    def test_bf16_is_two_bytes(self):
        assert DType.BF16.nbytes == 2

    def test_fp16_is_two_bytes(self):
        assert DType.FP16.nbytes == 2

    def test_int8_is_one_byte(self):
        assert DType.INT8.nbytes == 1

    def test_fp32_is_four_bytes(self):
        assert DType.FP32.nbytes == 4

    def test_labels_unique(self):
        labels = [d.label for d in DType]
        assert len(labels) == len(set(labels))


class TestParseDtype:
    @pytest.mark.parametrize("name,expected", [
        ("bf16", DType.BF16),
        ("BF16", DType.BF16),
        ("int8", DType.INT8),
        ("fp32", DType.FP32),
        ("FP16", DType.FP16),
    ])
    def test_parses_labels(self, name, expected):
        assert parse_dtype(name) is expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            parse_dtype("fp8")
