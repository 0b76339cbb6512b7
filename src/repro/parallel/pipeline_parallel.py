"""Pipeline-parallel execution across CPU sockets.

The alternative to tensor parallelism for using the second socket: assign
each socket a contiguous *block of layers* (a stage). Activations hop
between stages once per traversal; weights never cross sockets, so data
placement is perfectly local and there is no allreduce.

The latency/throughput split is the textbook one, and the simulator makes
it concrete:

* **per-token latency does not improve** — a token still traverses every
  layer, so decode latency is the *sum* of stage times plus hops (in fact
  slightly worse than one socket when the model fits locally);
* **throughput can nearly double** — with at least as many in-flight
  micro-batches as stages, the steady-state rate is set by the *slowest
  stage*, and each stage streams only its own layer shard from local HBM.

For over-capacity models there is a second effect, same as TP: halving
each socket's weight share can pull a DDR-spilling model back inside HBM,
improving even the latency sum.
"""

import dataclasses
from typing import List

from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.interconnect import Interconnect, upi_link
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.layers import Op
from repro.models.memory import (
    kv_cache_bytes,
    peak_activation_bytes,
    weight_bytes,
)
from repro.models.opgraph import decode_step_ops
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class PPConfig:
    """Pipeline-parallel configuration.

    Attributes:
        stages: Pipeline depth (sockets).
    """

    stages: int = 2

    def __post_init__(self) -> None:
        require_positive(self.stages, "stages")


@dataclasses.dataclass(frozen=True)
class PPEstimate:
    """Projected pipeline-parallel decode behaviour.

    Attributes:
        stage_time_s: Per-stage decode-step time (balanced stages).
        hop_time_s: Activation transfer between adjacent stages.
        token_latency_s: Per-token decode latency (sum of stages + hops).
        steady_throughput: Tokens/s at steady state with the pipeline full.
        single_socket_step_s: Reference single-socket decode step.
    """

    stage_time_s: float
    hop_time_s: float
    token_latency_s: float
    steady_throughput: float
    single_socket_step_s: float

    @property
    def throughput_gain(self) -> float:
        """Steady-state throughput over the single-socket token rate.

        Both rates serve the same batch, so the gain reduces to the ratio
        of the single-socket step time to the pipeline's bottleneck
        interval (slowest stage + hop).
        """
        return self.single_socket_step_s / (self.stage_time_s + self.hop_time_s)


class PipelineParallelSimulator:
    """Estimates pipeline-parallel decode behaviour on a CPU server.

    Args:
        platform: CPU platform (single-socket spec; stages map to sockets).
        pp: Pipeline configuration.
        interconnect: Stage-to-stage link (UPI).
    """

    def __init__(self, platform: Platform, pp: PPConfig = PPConfig(),
                 interconnect: Interconnect = None):
        if not platform.is_cpu or platform.topology is None:
            raise ValueError(f"{platform.name} is not a CPU platform")
        if pp.stages > platform.topology.sockets:
            raise ValueError(
                f"{pp.stages} stages exceed {platform.topology.sockets} "
                "sockets")
        self.platform = platform
        self.pp = pp
        self.interconnect = interconnect or upi_link()
        self._base = InferenceSimulator(platform)

    def _stage_ops(self, ops: List[Op]) -> List[Op]:
        """One stage's share: per-layer quantities scaled by 1/stages.

        Per-layer ops (instances == n_layers) shard exactly; the
        embedding/lm-head singletons live on the first/last stage — they
        are charged to the modeled stage, a slight overestimate that keeps
        the stage balanced-or-pessimistic.
        """
        s = self.pp.stages
        sharded = []
        for op in ops:
            sharded.append(dataclasses.replace(
                op,
                instances=max(1, op.instances // s),
                weight_bytes=op.weight_bytes / s,
                activation_bytes=op.activation_bytes / s,
                kv_read_bytes=op.kv_read_bytes / s,
                kv_write_bytes=op.kv_write_bytes / s,
                extra_flops=op.extra_flops / s,
                kernel_launches=max(1, op.kernel_launches // s),
            ))
        return sharded

    def _stage_executor(self, model: ModelConfig,
                        request: InferenceRequest) -> OperatorExecutor:
        """Executor whose bandwidth reflects one stage's local footprint."""
        footprint = (
            weight_bytes(model, request.dtype) / self.pp.stages
            + kv_cache_bytes(model, request.max_seq_len, request.batch_size,
                             request.dtype) / self.pp.stages
            + peak_activation_bytes(model, request.max_seq_len,
                                    request.batch_size, request.dtype))
        return OperatorExecutor(
            self.platform, request.dtype,
            bandwidth=self._base.effective_bandwidth(footprint),
            compute_scale=self._base.compute_scale())

    def estimate(self, model: ModelConfig,
                 request: InferenceRequest = InferenceRequest()) -> PPEstimate:
        """Project decode-step behaviour at mid-generation KV length."""
        kv_len = request.input_len + request.decode_steps // 2
        ops = decode_step_ops(model, request.batch_size, kv_len,
                              request.dtype)

        single = sum(t.time_s for t in
                     self._base._executor(model, request).time_ops(ops))

        stage_executor = self._stage_executor(model, request)
        stage = sum(t.time_s for t in
                    stage_executor.time_ops(self._stage_ops(ops)))

        hop_bytes = request.batch_size * model.d_model * request.dtype.nbytes
        hop = self.interconnect.transfer_time(hop_bytes)

        token_latency = self.pp.stages * stage + (self.pp.stages - 1) * hop
        steady = request.batch_size / max(stage + hop, 1e-12) \
            if self.pp.stages > 1 else request.batch_size / max(stage, 1e-12)

        return PPEstimate(
            stage_time_s=stage,
            hop_time_s=hop,
            token_latency_s=token_latency,
            steady_throughput=steady,
            single_socket_step_s=single,
        )
