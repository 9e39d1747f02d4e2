"""repro.serve — the concurrent serving front of a SocialScope site.

The layers below (:mod:`repro.api` downwards) answer *one* query well;
this package answers *many at once*: an asyncio gateway
(:class:`ServeGateway`) that admission-controls per-tenant traffic
(:mod:`repro.serve.admission`), queues admitted requests by tenant
priority, and executes each once on a bounded pool — its deadline the
one bound, a typed outcome the one answer to a failure.  The closed-loop
load harness (:mod:`repro.serve.loadgen`) replays the paper's power-law
traffic shape against it.
"""

from __future__ import annotations

from repro.serve.admission import (
    GLOBAL_DEPTH,
    TENANT_BUDGET,
    Admitted,
    AdmissionController,
    AdmissionPolicy,
    AdmissionStats,
    DeadlineExceeded,
    Overloaded,
    TenantPolicy,
)
from repro.serve.gateway import (
    GatewayConfig,
    GatewayStats,
    ServeGateway,
    ServeOutcome,
)
from repro.serve.metrics import latency_summary, peak_rss_mb, percentile

__all__ = [
    "TENANT_BUDGET",
    "GLOBAL_DEPTH",
    "TenantPolicy",
    "AdmissionPolicy",
    "Overloaded",
    "DeadlineExceeded",
    "Admitted",
    "AdmissionStats",
    "AdmissionController",
    "GatewayConfig",
    "GatewayStats",
    "ServeGateway",
    "ServeOutcome",
    "percentile",
    "latency_summary",
    "peak_rss_mb",
]
