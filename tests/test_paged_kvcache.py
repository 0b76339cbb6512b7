"""Paged and reserved KV-cache disciplines of the one block accountant."""

import pytest

from repro.engine.backend import BaselineBackend
from repro.engine.kvcache import (
    KVCacheManager,
    OutOfBlocks,
    max_admissible_sequences,
)
from repro.models.registry import get_model
from repro.utils.units import GB

KV_WIDTH = BaselineBackend().kv_bytes_per_token(get_model("llama2-13b"))


def pool(num_blocks, block_tokens=16):
    """A paged manager whose budget holds exactly *num_blocks* blocks."""
    capacity = num_blocks * block_tokens * KV_WIDTH
    return KVCacheManager(KV_WIDTH, capacity, block_tokens=block_tokens)


class TestBlockPool:
    def test_initial_pool(self):
        kv = pool(10)
        assert kv.num_blocks == 10
        assert kv.free_blocks == 10
        assert kv.used_blocks == 0

    def test_allocate_free_roundtrip(self):
        kv = pool(4)
        sid = kv.allocate(16)
        assert kv.used_blocks == 1
        kv.release(sid)
        assert kv.used_blocks == 0

    def test_unique_block_ids(self):
        kv = pool(8)
        ids = [kv.allocate(16) for _ in range(8)]
        assert len(set(ids)) == 8
        assert kv.free_blocks == 0

    def test_exhaustion_raises(self):
        kv = pool(2)
        kv.allocate(16)
        kv.allocate(16)
        with pytest.raises(OutOfBlocks):
            kv.allocate(1)

    def test_invalid_free_rejected(self):
        kv = pool(2)
        kv.allocate(16)
        with pytest.raises(KeyError):
            kv.release(5)
        assert kv.used_blocks == 1

    def test_double_free_rejected(self):
        kv = pool(4)
        kv.allocate(16)
        sid = kv.allocate(16)
        kv.release(sid)
        with pytest.raises(KeyError):
            kv.release(sid)
        assert kv.used_blocks == 1
        assert kv.used_blocks + kv.free_blocks == kv.num_blocks


class TestPagedManager:
    def manager(self, budget_gb=4):
        return KVCacheManager(KV_WIDTH, budget_gb * GB, block_tokens=16)

    def test_prompt_allocates_ceil_blocks(self):
        kv = self.manager()
        kv.allocate(17)  # 2 blocks of 16
        assert kv.used_blocks == 2

    def test_append_within_block_is_free(self):
        kv = self.manager()
        sid = kv.allocate(17)
        used = kv.used_blocks
        for _ in range(15):  # 17 -> 32 stays within 2 blocks
            kv.append_token(sid)
        assert kv.used_blocks == used

    def test_append_across_boundary_takes_block(self):
        kv = self.manager()
        sid = kv.allocate(16)
        used = kv.used_blocks
        kv.append_token(sid)  # token 17 -> new block
        assert kv.used_blocks == used + 1

    def test_release_frees_all_blocks(self):
        kv = self.manager()
        sid = kv.allocate(100)
        kv.release(sid)
        assert kv.used_blocks == 0

    def test_utilization_high_for_full_blocks(self):
        kv = self.manager()
        kv.allocate(160)  # exactly 10 blocks
        assert kv.utilization == pytest.approx(1.0)

    def test_utilization_reflects_partial_blocks(self):
        kv = self.manager()
        kv.allocate(1)  # 1 token in a 16-token block
        assert kv.utilization == pytest.approx(1 / 16)

    def test_out_of_blocks_on_admission(self):
        kv = KVCacheManager(KV_WIDTH, 0.05 * GB)  # a handful of blocks
        with pytest.raises(OutOfBlocks):
            kv.allocate(100_000)

    def test_too_small_budget_rejected(self):
        with pytest.raises(ValueError, match="one block"):
            KVCacheManager(KV_WIDTH, 10.0)


class TestReservedManager:
    def test_reserves_max_length(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, reserve_tokens=1024)
        kv.allocate(10)
        assert kv.allocated_bytes == pytest.approx(
            1024 * kv.bytes_per_token)

    def test_admission_cap(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, reserve_tokens=1024)
        cap = kv.num_blocks // (1024 // kv.block_tokens)
        admitted = max_admissible_sequences(kv, 10)
        assert admitted == cap
        assert cap == int(4 * GB // (1024 * kv.bytes_per_token))

    def test_reservation_enforced_on_growth(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, reserve_tokens=16)
        sid = kv.allocate(16)
        with pytest.raises(OutOfBlocks):
            kv.append_token(sid)

    def test_rejects_prompt_beyond_reservation(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, reserve_tokens=64)
        assert not kv.can_admit(65)
        with pytest.raises(OutOfBlocks):
            kv.allocate(65)

    def test_low_utilization_for_short_prompts(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, reserve_tokens=4096)
        kv.allocate(128)
        assert kv.utilization < 0.05

    def test_growth_stops_at_reservation_not_block_end(self):
        kv = KVCacheManager(KV_WIDTH, 4 * GB, block_tokens=16,
                            reserve_tokens=17)
        sid = kv.allocate(1)
        for _ in range(16):  # grows to the 17-token reservation
            kv.append_token(sid)
        assert kv.used_blocks == 2
        with pytest.raises(OutOfBlocks):
            kv.append_token(sid)  # the second block has room; R does not


class TestPagedVsReserved:
    def test_paged_admits_many_more(self):
        budget = 8 * GB
        paged = KVCacheManager(KV_WIDTH, budget)
        reserved = KVCacheManager(KV_WIDTH, budget, reserve_tokens=4096)
        n_paged = max_admissible_sequences(paged, 128)
        n_reserved = max_admissible_sequences(reserved, 128)
        assert n_paged > 10 * max(1, n_reserved)

    def test_same_budget_same_token_capacity_asymptotically(self):
        # With full-length sequences the two disciplines converge.
        budget = 8 * GB
        paged = KVCacheManager(KV_WIDTH, budget)
        reserved = KVCacheManager(KV_WIDTH, budget, reserve_tokens=4096)
        n_paged = max_admissible_sequences(paged, 4096)
        n_reserved = max_admissible_sequences(reserved, 4096)
        assert abs(n_paged - n_reserved) <= 1
