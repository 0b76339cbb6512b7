"""Multi-socket parallel-execution substrate: tensor and pipeline parallel.

Tensor parallelism is priced by
:class:`~repro.engine.backend.TensorParallelBackend` on the one
:class:`~repro.engine.inference.InferenceSimulator` path; its
:class:`TPConfig` is re-exported here.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.engine.backend": ("TPConfig",),
    ".pipeline_parallel": ("PPEstimate", "PipelineParallelSimulator"),
})
