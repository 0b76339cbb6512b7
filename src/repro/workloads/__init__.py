"""Synthetic workload generation and serving estimation."""

from repro.workloads.classes import (
    DEFAULT_CLASS_MIX,
    REQUEST_CLASSES,
    ClassMixStream,
    MixClassifier,
    RequestClass,
    iter_class_arrivals,
    parse_class_mix,
)
from repro.workloads.generator import (
    PRESET_WORKLOADS,
    WorkloadSpec,
    batch_analytics_workload,
    chatbot_workload,
    generate_requests,
    total_tokens,
    translation_workload,
)
from repro.workloads.serving import ServingStats, serve
from repro.workloads.streams import ShardableStream, stream_workload
from repro.workloads.tenancy import (
    TenantRequest,
    TenantStream,
    TenantWorkloadSpec,
    iter_tenant_arrivals,
    zipf_shares,
)
from repro.workloads.throttling import (
    ThrottleConfig,
    ThrottleDecision,
    throttle_decisions,
)

__all__ = [
    "DEFAULT_CLASS_MIX",
    "PRESET_WORKLOADS",
    "REQUEST_CLASSES",
    "ClassMixStream",
    "MixClassifier",
    "RequestClass",
    "ServingStats",
    "ShardableStream",
    "TenantRequest",
    "TenantStream",
    "TenantWorkloadSpec",
    "ThrottleConfig",
    "ThrottleDecision",
    "WorkloadSpec",
    "iter_class_arrivals",
    "iter_tenant_arrivals",
    "parse_class_mix",
    "stream_workload",
    "throttle_decisions",
    "zipf_shares",
    "batch_analytics_workload",
    "chatbot_workload",
    "generate_requests",
    "serve",
    "total_tokens",
    "translation_workload",
]
