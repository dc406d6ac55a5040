"""repro.serve — network-deployable QTDA service (DESIGN.md §15).

Layers, outermost first:

* :mod:`repro.serve.server` — stdlib HTTP/JSON adapter
  (:class:`QTDAServer`, :class:`ServeConfig`) exposing
  ``POST /v1/{estimate,pipeline,sweep,observe}`` plus ``GET /v1/health``
  and ``GET /v1/stats`` over the wire schema of :mod:`repro.core.api`.
* :mod:`repro.serve.quotas` — admission control
  (:class:`AdmissionController`, per-caller :class:`TokenBucket` quotas,
  429/503 backpressure, graceful drain).
* :mod:`repro.serve.coalescer` — in-flight deduplication of identical
  deterministic requests plus geometry-fingerprint grouping
  (:class:`RequestCoalescer`).
* :mod:`repro.serve.metrics` — counters/gauges/latency histograms
  (:class:`MetricsRegistry`) surfaced on ``/v1/stats``.
* :mod:`repro.serve.loadgen` — keep-alive :class:`ServiceClient` and the
  :func:`run_load` mixed-workload harness behind
  ``benchmarks/test_bench_service_load.py``.
"""

from repro.serve.coalescer import RequestCoalescer
from repro.serve.loadgen import (
    LoadReport,
    RequestClass,
    ServiceClient,
    ServiceError,
    run_load,
)
from repro.serve.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.serve.quotas import AdmissionController, AdmissionRejected, TokenBucket
from repro.serve.server import (
    MAX_BODY_BYTES,
    SERVED_KINDS,
    QTDAServer,
    ServeConfig,
    error_envelope,
    validate_stats_dict,
)

__all__ = [
    "MAX_BODY_BYTES",
    "SERVED_KINDS",
    "AdmissionController",
    "AdmissionRejected",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "LoadReport",
    "MetricsRegistry",
    "QTDAServer",
    "RequestClass",
    "RequestCoalescer",
    "ServeConfig",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "error_envelope",
    "run_load",
    "validate_stats_dict",
]
