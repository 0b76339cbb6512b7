"""Compute-engine tests."""

import pytest

from repro.hardware.compute import (
    ComputeEngine,
    EngineKind,
    TileShape,
    tiles_needed,
)
from repro.hardware.datatypes import DType


def make_engine(**overrides):
    defaults = dict(
        name="test-engine",
        kind=EngineKind.VECTOR,
        peak_flops={DType.BF16: 10e12},
    )
    defaults.update(overrides)
    return ComputeEngine(**defaults)


class TestComputeEngine:
    def test_peak_lookup(self):
        engine = make_engine()
        assert engine.peak(DType.BF16) == 10e12

    def test_unsupported_dtype_raises_keyerror(self):
        engine = make_engine()
        with pytest.raises(KeyError):
            engine.peak(DType.FP32)

    def test_supports(self):
        engine = make_engine()
        assert engine.supports(DType.BF16)
        assert not engine.supports(DType.INT8)

    def test_empty_peaks_rejected(self):
        with pytest.raises(ValueError, match="no peak rates"):
            make_engine(peak_flops={})

    def test_non_positive_peak_rejected(self):
        with pytest.raises(ValueError):
            make_engine(peak_flops={DType.BF16: 0.0})

    def test_matrix_engine_requires_tile(self):
        with pytest.raises(ValueError, match="requires a tile shape"):
            make_engine(kind=EngineKind.MATRIX, tile=None)

    def test_matrix_engine_with_tile_ok(self):
        engine = make_engine(kind=EngineKind.MATRIX,
                             tile=TileShape(16, 16, 32))
        assert engine.tile.m == 16

    def test_scaled_multiplies_all_peaks(self):
        engine = make_engine(peak_flops={DType.BF16: 10e12, DType.INT8: 20e12})
        half = engine.scaled(0.5)
        assert half.peak(DType.BF16) == pytest.approx(5e12)
        assert half.peak(DType.INT8) == pytest.approx(10e12)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            make_engine().scaled(0.0)


class TestTileShape:
    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            TileShape(0, 16, 32)

    def test_tiles_needed_exact(self):
        assert tiles_needed(TileShape(16, 16, 32), 32, 32, 64) == (2, 2, 2)

    def test_tiles_needed_rounds_up(self):
        assert tiles_needed(TileShape(16, 16, 32), 17, 1, 33) == (2, 1, 2)

    def test_tiles_needed_rejects_zero(self):
        with pytest.raises(ValueError):
            tiles_needed(TileShape(16, 16, 32), 0, 1, 1)
