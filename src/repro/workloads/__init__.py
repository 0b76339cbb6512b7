"""Synthetic workload generation and serving estimation."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".classes": ("DEFAULT_CLASS_MIX", "REQUEST_CLASSES", "ClassMixStream",
                 "MixClassifier", "RequestClass", "iter_class_arrivals",
                 "parse_class_mix"),
    ".generator": ("PRESET_WORKLOADS", "WorkloadSpec",
                   "batch_analytics_workload", "chatbot_workload",
                   "generate_requests", "total_tokens",
                   "translation_workload"),
    ".serving": ("ServingStats", "serve"),
    ".streams": ("ShardableStream", "stream_workload"),
    ".tenancy": ("TenantRequest", "TenantWorkloadSpec",
                 "iter_tenant_arrivals", "zipf_shares"),
    ".throttling": ("TenantStream", "ThrottleConfig", "ThrottleDecision",
                    "throttle_decisions"),
})
