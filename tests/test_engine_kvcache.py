"""KV-cache manager tests."""

import pytest

from repro.engine.backend import BaselineBackend
from repro.engine.kvcache import KVCacheManager, OutOfBlocks
from repro.models.memory import kv_cache_bytes_per_token
from repro.models.registry import get_model
from repro.utils.units import GB


def manager(capacity=8 * GB):
    width = BaselineBackend().kv_bytes_per_token(get_model("llama2-13b"))
    return KVCacheManager(width, capacity_bytes=capacity)


class TestAccounting:
    def test_starts_empty(self):
        kv = manager()
        assert kv.num_sequences == 0
        assert kv.allocated_bytes == 0.0

    def test_bytes_per_token_matches_model_math(self):
        kv = manager()
        assert kv.bytes_per_token == kv_cache_bytes_per_token(
            get_model("llama2-13b"))

    def test_allocate_tracks_tokens(self):
        kv = manager()
        kv.allocate(128)
        assert kv.cached_tokens == 128
        assert kv.allocated_bytes == pytest.approx(128 * kv.bytes_per_token)

    def test_allocate_batch(self):
        kv = manager()
        ids = [kv.allocate(128) for _ in range(4)]
        assert len(ids) == 4
        assert len(set(ids)) == 4
        assert kv.cached_tokens == 512

    def test_append_token_grows_one(self):
        kv = manager()
        sid = kv.allocate(10)
        kv.append_token(sid)
        assert kv.seq_len(sid) == 11

    def test_release_frees_bytes(self):
        kv = manager()
        sid = kv.allocate(100)
        kv.release(sid)
        assert kv.allocated_bytes == 0.0
        assert kv.num_sequences == 0

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            manager().release(99)

    def test_append_unknown_raises(self):
        with pytest.raises(KeyError):
            manager().append_token(99)

    def test_append_tokens_batched(self):
        # A decode step appends one token to every sequence of the batch.
        kv = manager()
        ids = [kv.allocate(10) for _ in range(3)]
        for _ in range(5):
            for sid in ids:
                kv.append_token(sid)
        assert all(kv.seq_len(sid) == 15 for sid in ids)
        assert kv.cached_tokens == 45

    def test_append_tokens_matches_per_step_loop(self):
        # Growing a batch one decode step at a time ends in the same
        # state as admitting the grown sequences outright.
        looped, direct = manager(), manager()
        ids = [looped.allocate(16) for _ in range(4)]
        for _ in range(7):
            for sid in ids:
                looped.append_token(sid)
        for _ in range(4):
            direct.allocate(23)
        assert looped.cached_tokens == direct.cached_tokens == 92
        assert looped.used_blocks == direct.used_blocks == 8
        assert looped.allocated_bytes == direct.allocated_bytes

    def test_append_tokens_unknown_id_raises_before_any_growth(self):
        kv = manager()
        sid = kv.allocate(16)
        used = kv.used_blocks
        with pytest.raises(KeyError):
            kv.append_token(99)
        assert kv.seq_len(sid) == 16
        assert kv.cached_tokens == 16
        assert kv.used_blocks == used


class TestBudget:
    def test_overflow_on_allocate(self):
        kv = manager(capacity=1 * GB)
        tokens_that_fit = int(1 * GB / kv.bytes_per_token)
        with pytest.raises(OutOfBlocks):
            kv.allocate(tokens_that_fit + 1)

    def test_overflow_on_append(self):
        kv = manager(capacity=1 * GB)
        sid = kv.allocate(kv.num_blocks * kv.block_tokens)
        with pytest.raises(OutOfBlocks):
            kv.append_token(sid)

    def test_append_tokens_overflow_is_all_or_nothing(self):
        kv = manager(capacity=1 * GB)
        half = kv.num_blocks // 2 * kv.block_tokens
        ids = [kv.allocate(half), kv.allocate(
            (kv.num_blocks - kv.num_blocks // 2) * kv.block_tokens)]
        assert kv.free_blocks == 0
        before = (kv.cached_tokens, kv.used_blocks, kv.seq_len(ids[0]))
        with pytest.raises(OutOfBlocks):
            kv.append_token(ids[0])  # needs a block the pool lacks
        assert (kv.cached_tokens, kv.used_blocks,
                kv.seq_len(ids[0])) == before

    def test_would_fit(self):
        kv = manager(capacity=1 * GB)
        assert kv.can_admit(100)
        assert not kv.can_admit(1000 * 100_000)

    def test_would_fit_accounts_existing(self):
        kv = manager(capacity=1 * GB)
        tokens = int(0.9 * GB / kv.bytes_per_token)
        kv.allocate(tokens)
        assert not kv.can_admit(tokens)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            manager(capacity=0)
