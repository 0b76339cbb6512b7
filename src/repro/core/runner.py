"""Unified run dispatch and characterization sweeps.

``run_inference`` picks the right engine automatically: CPUs and
fitting-in-memory GPUs use the in-memory simulator; over-capacity GPU runs
use the offloading engine (exactly the paper's methodology: IPEX on CPUs,
FlexGen for over-capacity GPU configurations).

``CharacterizationSweep`` executes the paper's model x platform x batch
grid and collects flat rows ready for the figure harnesses.
"""

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.backend import ExecutionBackend
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.request import EVALUATED_BATCH_SIZES, InferenceRequest
from repro.engine.results import InferenceResult
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.offload.engine import OffloadResult, OffloadSimulator

RunResult = Union[InferenceResult, OffloadResult]


def run_inference(platform: Platform, model: ModelConfig,
                  request: InferenceRequest = InferenceRequest(),
                  backend: Optional[ExecutionBackend] = None) -> RunResult:
    """Simulate *model* x *platform*, offloading automatically when needed.

    Returns an :class:`InferenceResult` for in-memory runs or an
    :class:`OffloadResult` for over-capacity GPU runs; both expose the same
    metric surface (``ttft_s``, ``tpot_s``, ``e2e_s``, throughputs,
    ``summary()``). *backend* is :class:`InferenceSimulator`'s; a backend
    the platform refuses (a CPU placement on a GPU) raises
    ``ValueError`` even where the run would offload.

    A GPU run offloads exactly when :meth:`InferenceSimulator.fits` is
    False; offloading prices only the plain BF16 base, so an explicit
    *backend* that does not fit raises :class:`MemoryCapacityError`.
    """
    simulator = InferenceSimulator(platform, backend)
    if platform.is_gpu and not simulator.fits(model, request):
        if backend is not None:
            raise MemoryCapacityError(
                f"{model.name} under backend {backend.label} does not fit "
                f"{platform.name}; offloading prices only the plain "
                "bf16 request, not a backend")
        return OffloadSimulator(platform).run(model, request)
    return simulator.run(model, request)


def is_offloaded(result: RunResult) -> bool:
    """Whether *result* came from the offloading engine."""
    return isinstance(result, OffloadResult)


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One cell of a characterization sweep.

    Attributes:
        model: Model display name.
        platform: Platform name.
        batch_size / input_len / output_len: Request shape.
        offloaded: Whether the offloading engine served the run.
        metrics: ``summary()`` of the result.
        result: The full result object (for counter derivation etc.).
    """

    model: str
    platform: str
    batch_size: int
    input_len: int
    output_len: int
    offloaded: bool
    metrics: Dict[str, float]
    result: RunResult


class CharacterizationSweep:
    """Runs the paper's evaluation grid.

    Args:
        platforms: Platforms to sweep.
        models: Models to sweep.
        batch_sizes: Batch sizes (defaults to the paper's 1-32 powers of 2).
        input_len / output_len: Request shape (defaults 128 / 32).
        backend: Applied to every cell (:func:`run_inference`).
    """

    def __init__(self, platforms: Sequence[Platform],
                 models: Sequence[ModelConfig],
                 batch_sizes: Iterable[int] = EVALUATED_BATCH_SIZES,
                 input_len: int = 128,
                 output_len: int = 32,
                 backend: Optional[ExecutionBackend] = None):
        self.platforms = list(platforms)
        self.models = list(models)
        self.batch_sizes = list(batch_sizes)
        self.input_len = input_len
        self.output_len = output_len
        self.backend = backend

    def _grid(self) -> List[tuple]:
        """The (model, platform, batch) cells in deterministic sweep order."""
        return [(model, platform, batch)
                for model in self.models
                for platform in self.platforms
                for batch in self.batch_sizes]

    def run(self) -> List[SweepRow]:
        """Execute the grid, skipping configurations that cannot fit.

        The skip mirrors the paper, which omits model/platform
        combinations that are infeasible even with offloading (e.g.
        OPT-175B everywhere). Only :class:`MemoryCapacityError` marks a
        cell as oversize — any other exception is a genuine bug and
        propagates.
        """
        rows: List[SweepRow] = []
        for model, platform, batch in self._grid():
            request = InferenceRequest(batch_size=batch,
                                       input_len=self.input_len,
                                       output_len=self.output_len)
            try:
                result = run_inference(platform, model, request,
                                       self.backend)
            except MemoryCapacityError:
                continue
            rows.append(SweepRow(
                model=model.name,
                platform=platform.name,
                batch_size=batch,
                input_len=self.input_len,
                output_len=self.output_len,
                offloaded=is_offloaded(result),
                metrics=result.summary(),
                result=result,
            ))
        return rows


def filter_rows(rows: Sequence[SweepRow], *,
                model: Optional[str] = None,
                platform: Optional[str] = None,
                batch_size: Optional[int] = None) -> List[SweepRow]:
    """Select sweep rows matching the given coordinates."""
    out = []
    for row in rows:
        if model is not None and row.model != model:
            continue
        if platform is not None and row.platform != platform:
            continue
        if batch_size is not None and row.batch_size != batch_size:
            continue
        out.append(row)
    return out
