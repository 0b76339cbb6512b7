"""Cache-hierarchy tests."""

import pytest

from repro.hardware.caches import (
    CACHE_LINE_BYTES,
    CacheHierarchy,
    CacheLevel,
)
from repro.utils.units import MIB


def small_hierarchy(llc_mb=105):
    return CacheHierarchy(levels=[
        CacheLevel("L1D", 48 * 1024 * 48, shared=False),
        CacheLevel("L2", 2 * MIB * 48, shared=False),
        CacheLevel("L3", llc_mb * MIB, shared=True),
    ])


class TestCacheLevel:
    def test_default_line_size(self):
        assert CacheLevel("L1", 1024, shared=False).line_bytes == CACHE_LINE_BYTES

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CacheLevel("L1", 0, shared=False)


class TestCacheHierarchy:
    def test_llc_is_last_level(self):
        assert small_hierarchy().llc.name == "L3"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=[])
