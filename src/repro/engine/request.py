"""Inference request description.

The paper's main configuration is input 128 / output 32 tokens with batch
sizes 1-32 (Section IV-A); Section V additionally sweeps input length from
128 to 1024.
"""

import dataclasses

from repro.utils.validation import require_positive

#: Batch sizes swept throughout the paper's evaluation.
EVALUATED_BATCH_SIZES = (1, 2, 4, 8, 16, 32)

#: Input lengths swept in Section V-C (Figs. 20, 21).
EVALUATED_INPUT_LENGTHS = (128, 256, 512, 1024)


@dataclasses.dataclass(frozen=True)
class InferenceRequest:
    """One batched generation request.

    Attributes:
        batch_size: Number of sequences generated together.
        input_len: Prompt tokens per sequence.
        output_len: Tokens to generate per sequence (includes the first
            token produced by prefill).

    A request has no dtype: the backend that prices it owns one
    (``BaselineBackend(DType.FP32)`` prices an FP32 run; the default
    base is the paper's BF16).
    """

    batch_size: int = 1
    input_len: int = 128
    output_len: int = 32

    def __post_init__(self) -> None:
        require_positive(self.batch_size, "batch_size")
        require_positive(self.input_len, "input_len")
        require_positive(self.output_len, "output_len")

    @property
    def total_generated_tokens(self) -> int:
        """Tokens generated across the batch (throughput numerator)."""
        return self.batch_size * self.output_len

    @property
    def decode_steps(self) -> int:
        """Autoregressive steps after prefill (first token is prefill's)."""
        return self.output_len - 1

    @property
    def max_seq_len(self) -> int:
        """Longest sequence length reached during the request."""
        return self.input_len + self.output_len


PAPER_DEFAULT_REQUEST = InferenceRequest()
