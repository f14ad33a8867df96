"""Observability plane: tracing, metrics, SLOs, triage, forensics.

Cooperating pieces, all inert until opted into:

* :mod:`repro.obs.trace` — bounded-ring span tracing on the engine's
  virtual clock (deterministic, pinned by tests) and wall clock (front
  door, map service), exportable as Chrome/Perfetto trace JSON.
* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with
  Prometheus text exposition, bound into the engine, autoscaler, stores,
  admission controller and service front door.
* :mod:`repro.obs.profile` — env-gated hot-kernel profiling hooks.
* :mod:`repro.obs.slo` — per-QoS deadline objectives and multi-window
  burn rates, on the virtual clock in the engine and the wall clock at
  the front door.
* :mod:`repro.obs.triage` — failure-signature classification of every
  finished session (``ok``/``divergence``/``deadline_miss``/...).
* :mod:`repro.obs.recorder` — content-addressed forensic bundles
  captured on deterministic failure triggers.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.profile import (
    disable_kernel_tracing,
    enable_kernel_tracing,
    profile_kernel,
)
from repro.obs.recorder import (
    FlightRecorder,
    MAX_BUNDLES_ENV,
    RECORDER_ENV,
    bundle_digest,
    load_bundle,
    recorder_enabled,
    recorder_from_env,
)
from repro.obs.slo import (
    DEFAULT_SLO_TARGETS,
    SLOTarget,
    SLOTracker,
)
from repro.obs.trace import (
    CLOCK_DOMAINS,
    DEFAULT_TRACE_CAPACITY,
    SpanEvent,
    TRACE_CAPACITY_ENV,
    TRACE_ENV,
    TRACE_KERNELS_ENV,
    Tracer,
    quantize_us,
    trace_capacity,
    tracer_from_env,
    tracing_enabled,
)
from repro.obs.triage import (
    SIGNATURES,
    SIG_DEADLINE_MISS,
    SIG_DIVERGENCE,
    SIG_MAP_STALE_THRASH,
    SIG_OK,
    SIG_SHED,
    SIG_WRONG_WINNER,
    classify_session,
    signature_census,
)

__all__ = [
    "CLOCK_DOMAINS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_SLO_TARGETS",
    "DEFAULT_TRACE_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MAX_BUNDLES_ENV",
    "MetricsRegistry",
    "RECORDER_ENV",
    "SIGNATURES",
    "SIG_DEADLINE_MISS",
    "SIG_DIVERGENCE",
    "SIG_MAP_STALE_THRASH",
    "SIG_OK",
    "SIG_SHED",
    "SIG_WRONG_WINNER",
    "SLOTarget",
    "SLOTracker",
    "SpanEvent",
    "TRACE_CAPACITY_ENV",
    "TRACE_ENV",
    "TRACE_KERNELS_ENV",
    "Tracer",
    "bundle_digest",
    "classify_session",
    "disable_kernel_tracing",
    "enable_kernel_tracing",
    "load_bundle",
    "parse_prometheus",
    "profile_kernel",
    "quantize_us",
    "recorder_enabled",
    "recorder_from_env",
    "signature_census",
    "trace_capacity",
    "tracer_from_env",
    "tracing_enabled",
]
