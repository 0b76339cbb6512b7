"""Multi-socket parallel-execution substrate: tensor and pipeline parallel.

Tensor parallelism is priced by
:class:`~repro.engine.backend.TensorParallelBackend` on the one
:class:`~repro.engine.inference.InferenceSimulator` path; its
:class:`TPConfig` is re-exported here.
"""

from repro.engine.backend import TPConfig
from repro.parallel.pipeline_parallel import (
    PPConfig,
    PPEstimate,
    PipelineParallelSimulator,
)

__all__ = [
    "PPConfig",
    "PPEstimate",
    "PipelineParallelSimulator",
    "TPConfig",
]
