"""Numeric data types used for LLM weights, activations, and KV cache.

The paper evaluates BF16 inference throughout (IPEX BF16 on CPUs, BF16
tensor-core paths on GPUs) and sizes model footprints with FP16 (Fig. 6).
Both are 2-byte formats, so footprint math is identical; we keep them as
distinct members because compute engines advertise different peak rates for
each (AMX supports BF16/INT8 but not FP16, for example).
"""

import enum


class DType(enum.Enum):
    """A numeric storage/compute format with its size in bytes."""

    FP32 = ("fp32", 4)
    FP16 = ("fp16", 2)
    BF16 = ("bf16", 2)
    INT8 = ("int8", 1)

    def __init__(self, label: str, nbytes: int):
        self.label = label
        self.nbytes = nbytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def parse_dtype(name: str) -> DType:
    """Look up a :class:`DType` by its label (``"bf16"``, ``"int8"``, ...)."""
    for dtype in DType:
        if dtype.label == name.lower():
            return dtype
    raise ValueError(f"unknown dtype {name!r}; expected one of "
                     f"{[d.label for d in DType]}")
