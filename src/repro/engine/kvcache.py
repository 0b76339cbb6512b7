"""Block-granular KV-cache accountant.

Tracks per-sequence cached tokens against a byte budget carved into
fixed-size token blocks — the substrate behind the capacity arguments of
Section III (KV cache growing past model size) and vLLM's paged-attention
argument (related work §VII-C: paging "allows the system to batch more
sequences together").

One accountant covers both allocation disciplines:

* **paged** (``reserve_tokens=None``): a sequence holds ⌈tokens/block⌉
  blocks and takes one more at each block boundary, so memory tracks
  the tokens actually cached;
* **reserved** (``reserve_tokens=R``): a sequence holds ⌈R/block⌉ blocks
  from admission — the naive max-length contiguous buffer, which strands
  ``R - tokens`` slots per sequence (internal fragmentation). A prompt
  longer than ``R`` is refused, and growth past ``R`` raises.

The pool is a block count, not a free list: no caller reads block ids.
The KV width per token is the storing backend's ``kv_bytes_per_token``.
"""

from typing import Dict, Optional

from repro.utils.validation import require_positive


class OutOfBlocks(RuntimeError):
    """Raised when the block pool (or a reservation) cannot take a token."""


class KVCacheManager:
    """KV cache under a byte budget, allocated in blocks.

    Args:
        bytes_per_token: KV bytes one cached token holds per sequence,
            the storing backend's ``kv_bytes_per_token(model)``.
        capacity_bytes: Total KV budget.
        block_tokens: Tokens per block (vLLM's default is 16).
        reserve_tokens: Per-sequence reservation length; ``None`` pages
            on demand.
    """

    def __init__(self, bytes_per_token: float, capacity_bytes: float, *,
                 block_tokens: int = 16,
                 reserve_tokens: Optional[int] = None):
        require_positive(bytes_per_token, "bytes_per_token")
        require_positive(capacity_bytes, "capacity_bytes")
        require_positive(block_tokens, "block_tokens")
        if reserve_tokens is not None:
            require_positive(reserve_tokens, "reserve_tokens")
        self.block_tokens = block_tokens
        self.reserve_tokens = reserve_tokens
        self.bytes_per_token = bytes_per_token
        self.num_blocks = int(capacity_bytes
                              // (self.bytes_per_token * block_tokens))
        if self.num_blocks < 1:
            raise ValueError("capacity too small for even one block")
        self.used_blocks = 0
        self.cached_tokens = 0
        self._tokens: Dict[int, int] = {}
        self._next_id = 0

    @property
    def free_blocks(self) -> int:
        """Blocks currently available."""
        return self.num_blocks - self.used_blocks

    def _blocks_held(self, tokens: int) -> int:
        """Blocks a sequence of *tokens* cached tokens holds."""
        if self.reserve_tokens is not None:
            tokens = self.reserve_tokens
        return -(-tokens // self.block_tokens)

    def can_admit(self, prompt_tokens: int) -> bool:
        """Whether a new sequence's prompt fits right now."""
        if (self.reserve_tokens is not None
                and prompt_tokens > self.reserve_tokens):
            return False
        return self._blocks_held(prompt_tokens) <= self.free_blocks

    def allocate(self, prompt_tokens: int) -> int:
        """Admit one sequence with *prompt_tokens* cached; returns its id."""
        require_positive(prompt_tokens, "prompt_tokens")
        if not self.can_admit(prompt_tokens):
            raise OutOfBlocks(
                f"cannot admit a {prompt_tokens}-token prompt: "
                f"{self.free_blocks} of {self.num_blocks} blocks free"
                + (f", {self.reserve_tokens}-token reservation"
                   if self.reserve_tokens is not None else ""))
        seq_id = self._next_id
        self._next_id += 1
        self._tokens[seq_id] = prompt_tokens
        self.used_blocks += self._blocks_held(prompt_tokens)
        self.cached_tokens += prompt_tokens
        return seq_id

    def _held(self, seq_id: int) -> int:
        tokens = self._tokens.get(seq_id)
        if tokens is None:
            raise KeyError(f"unknown sequence id {seq_id}")
        return tokens

    def append_token(self, seq_id: int) -> None:
        """Cache one generated token, taking a block at a boundary."""
        tokens = self._held(seq_id)
        if self.reserve_tokens is not None:
            if tokens >= self.reserve_tokens:
                raise OutOfBlocks(f"sequence {seq_id} hit its "
                                  f"{self.reserve_tokens}-token reservation")
        elif tokens % self.block_tokens == 0:
            if self.used_blocks >= self.num_blocks:
                raise OutOfBlocks(
                    f"block pool exhausted ({self.num_blocks} blocks)")
            self.used_blocks += 1
        self._tokens[seq_id] = tokens + 1
        self.cached_tokens += 1

    def release(self, seq_id: int) -> None:
        """Free all of a finished sequence's blocks."""
        tokens = self._held(seq_id)
        del self._tokens[seq_id]
        self.used_blocks -= self._blocks_held(tokens)
        self.cached_tokens -= tokens

    def seq_len(self, seq_id: int) -> int:
        """Cached tokens for one sequence."""
        return self._held(seq_id)

    @property
    def num_sequences(self) -> int:
        """Live sequences."""
        return len(self._tokens)

    @property
    def allocated_bytes(self) -> float:
        """Bytes held by allocated blocks (>= useful bytes)."""
        return self.used_blocks * self.block_tokens * self.bytes_per_token

    @property
    def utilization(self) -> float:
        """Useful bytes over allocated bytes (1 - internal fragmentation)."""
        if self.used_blocks == 0:
            return 1.0
        return (self.cached_tokens * self.bytes_per_token
                / self.allocated_bytes)


def max_admissible_sequences(manager: KVCacheManager, prompt_tokens: int,
                             limit: int = 10_000) -> int:
    """Admit identical sequences until the manager refuses; returns count."""
    admitted = 0
    while admitted < limit and manager.can_admit(prompt_tokens):
        manager.allocate(prompt_tokens)
        admitted += 1
    return admitted
