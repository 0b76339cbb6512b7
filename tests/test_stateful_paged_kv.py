"""Stateful property-based testing of the KV block accountant (hypothesis).

A RuleBasedStateMachine drives random allocate/append/release sequences
against :class:`KVCacheManager` in both disciplines — each example draws
``reserve_tokens`` from {None (paged), 16·k (reserved)} — and checks
conservation invariants after every step against a reference model:
blocks never leak, accounting matches the reference, refusals happen only
when the pool or the reservation genuinely lacks room, and utilization
stays in (0, 1].
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.backend import BaselineBackend
from repro.engine.kvcache import KVCacheManager, OutOfBlocks
from repro.models.registry import get_model
from repro.utils.units import GB

BLOCK = 16


class KVMachine(RuleBasedStateMachine):
    """Random workload against KVCacheManager + a reference model."""

    def __init__(self):
        super().__init__()
        self.manager = None
        self.reference = {}  # seq_id -> token count

    @initialize(reserve=st.one_of(
        st.none(), st.integers(min_value=1, max_value=40).map(
            lambda k: BLOCK * k)))
    def build(self, reserve):
        self.manager = KVCacheManager(
            BaselineBackend().kv_bytes_per_token(get_model("opt-1.3b")),
            capacity_bytes=1 * GB,
            block_tokens=BLOCK, reserve_tokens=reserve)

    def held_blocks(self, tokens):
        reserve = self.manager.reserve_tokens
        return -(-(tokens if reserve is None else reserve) // BLOCK)

    @rule(prompt=st.integers(min_value=1, max_value=500))
    def allocate(self, prompt):
        try:
            seq_id = self.manager.allocate(prompt)
        except OutOfBlocks:
            # Must only happen when the prompt overruns the reservation
            # or the pool genuinely lacks blocks.
            reserve = self.manager.reserve_tokens
            assert ((reserve is not None and prompt > reserve)
                    or self.held_blocks(prompt) > self.manager.free_blocks)
            return
        assert seq_id not in self.reference
        self.reference[seq_id] = prompt

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def append(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.reference)))
        try:
            self.manager.append_token(seq_id)
        except OutOfBlocks:
            reserve = self.manager.reserve_tokens
            if reserve is None:
                assert self.manager.free_blocks == 0
            else:
                assert self.reference[seq_id] == reserve
            return
        self.reference[seq_id] += 1

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def release(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.reference)))
        self.manager.release(seq_id)
        del self.reference[seq_id]

    @invariant()
    def tokens_match_reference(self):
        assert self.manager.cached_tokens == sum(self.reference.values())
        assert self.manager.num_sequences == len(self.reference)
        for seq_id, tokens in self.reference.items():
            assert self.manager.seq_len(seq_id) == tokens

    @invariant()
    def blocks_cover_tokens_exactly(self):
        expected_blocks = sum(self.held_blocks(tokens)
                              for tokens in self.reference.values())
        assert self.manager.used_blocks == expected_blocks

    @invariant()
    def no_block_leaks(self):
        assert self.manager.used_blocks + self.manager.free_blocks == \
            self.manager.num_blocks

    @invariant()
    def utilization_in_unit_interval(self):
        assert 0.0 < self.manager.utilization <= 1.0


TestPagedKVStateful = KVMachine.TestCase
TestPagedKVStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
