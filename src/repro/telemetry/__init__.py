"""Unified telemetry: one registry + tracer handle threaded through every layer.

A :class:`Telemetry` handle bundles a
:class:`~repro.telemetry.metrics.MetricsRegistry` and a
:class:`~repro.telemetry.trace.Tracer`.  Thread it through an
:class:`~repro.engine.ExecutionContext` (or a
:class:`~repro.serving.ScoringService`) and every layer — cache, depth
kernels, chunked executor, streaming detectors, serving — emits into
the same registry; scrape it as Prometheus text
(``GET /metrics`` on the HTTP front door, or
:meth:`Telemetry.to_prometheus`) or snapshot it as JSON
(:meth:`Telemetry.snapshot`, ``repro telemetry dump``).

The default everywhere is :data:`NULL_TELEMETRY`, a no-op
:class:`NullTelemetry` whose instruments and spans do nothing — the
hot path pays one attribute load and a no-op call, nothing else.

Metric catalogue
----------------
Every metric the instrumented layers emit, with its unit:

====================================  =========  ===========================================
name                                  unit       meaning
====================================  =========  ===========================================
``engine_cache_hits_total``           count      factorization-cache hits, by ``kind``
                                                 (design/penalty/factorization/hat)
``engine_cache_builds_total``         count      factorization-cache misses (builds), by ``kind``
``depth_kernel_invocations_total``    count      blocked-kernel invocations, by ``kernel``
``depth_kernel_blocks_total``         blocks     kernel blocks executed, by ``kernel``
``depth_kernel_seconds``              seconds    histogram: wall time per kernel invocation,
                                                 by ``kernel``
``plan_chunks_total``                 chunks     chunks executed by ``run_chunked``
``plan_chunk_curves_total``           curves     curves pushed through ``run_chunked``
``plan_chunk_seconds``                seconds    histogram: per-chunk step latency
``streaming_arrivals_total``          curves     curves fed to a streaming detector, by ``kind``
``streaming_scored_total``            curves     curves scored (post-warm-up), by ``kind``
``streaming_flagged_total``           curves     curves flagged outlying, by ``kind``
``streaming_drift_checks_total``      count      KS drift checks run, by ``kind``
``streaming_drift_events_total``      count      drift detections, by ``kind``
``streaming_rereferences_total``      count      reference-window rebases, by ``kind``
``streaming_process_seconds``         seconds    histogram: full process() step latency,
                                                 by ``kind``
``streaming_shard_window_fill``       curves     gauge: per-shard reference-window fill,
                                                 by ``shard``
``streaming_merge_seconds``           seconds    histogram: sharded scoring latency, by
                                                 ``stage`` (partials: the shard partial
                                                 sums of a FUNTA stream)
``serving_queue_depth_curves``        curves     gauge: curves in the micro-batch queue —
                                                 the single queue-depth definition the
                                                 flush loop and backpressure both read
``serving_inflight_curves``           curves     gauge: curves swapped out by an unresolved
                                                 flush
``serving_served_curves_total``       curves     curves scored by the service
``serving_served_requests_total``     requests   requests resolved successfully
``serving_failed_requests_total``     requests   requests whose scoring group failed
``serving_flushes_total``             count      micro-batch queue flushes
``serving_flush_curves``              curves     histogram: curves resolved per flush
``serving_flush_seconds``             seconds    histogram: flush wall time
``serving_accepted_requests_total``   requests   HTTP requests accepted by the front door
``serving_shed_requests_total``       requests   HTTP requests shed with 429
``serving_request_seconds``           seconds    histogram: end-to-end HTTP latency, by
                                                 ``route`` and ``pipeline`` (spec hash
                                                 when the pipeline has one)
``serving_decode_seconds``            seconds    histogram: request-body parse time, by
                                                 ``route`` (shed and rejected bodies too)
====================================  =========  ===========================================

Trace JSONL format (``Tracer.export_jsonl`` / ``repro telemetry trace``):
one JSON object per line, each a *root* span tree::

    {"name": ..., "trace_id": ..., "span_id": ..., "parent_id": null,
     "start_unix_s": ..., "duration_s": ..., "attrs": {...},
     "children": [<same shape>, ...]}
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.telemetry.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import Tracer

__all__ = [
    "CATALOGUE",
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Telemetry",
    "Tracer",
    "resolve_telemetry",
]

#: name -> (type, unit, help) for every metric the layers emit; the
#: registry consults this for Prometheus ``# HELP`` text so call sites
#: never repeat documentation.
CATALOGUE: dict[str, tuple[str, str, str]] = {
    "engine_cache_hits_total": ("counter", "count", "Factorization-cache hits by artifact kind"),
    "engine_cache_builds_total": ("counter", "count", "Factorization-cache builds (misses) by artifact kind"),
    "depth_kernel_invocations_total": ("counter", "count", "Blocked depth-kernel invocations"),
    "depth_kernel_blocks_total": ("counter", "blocks", "Depth-kernel blocks executed"),
    "depth_kernel_seconds": ("histogram", "seconds", "Wall time per depth-kernel invocation"),
    "plan_chunks_total": ("counter", "chunks", "Chunks executed by run_chunked"),
    "plan_chunk_curves_total": ("counter", "curves", "Curves pushed through run_chunked"),
    "plan_chunk_seconds": ("histogram", "seconds", "Per-chunk step latency in run_chunked"),
    "streaming_arrivals_total": ("counter", "curves", "Curves fed to a streaming detector"),
    "streaming_scored_total": ("counter", "curves", "Curves scored after warm-up"),
    "streaming_flagged_total": ("counter", "curves", "Curves flagged outlying"),
    "streaming_drift_checks_total": ("counter", "count", "KS drift checks run"),
    "streaming_drift_events_total": ("counter", "count", "Drift detections"),
    "streaming_rereferences_total": ("counter", "count", "Reference-window rebases"),
    "streaming_process_seconds": ("histogram", "seconds", "Streaming process() step latency"),
    "streaming_shard_window_fill": ("gauge", "curves", "Per-shard reference-window fill"),
    "streaming_merge_seconds": ("histogram", "seconds", "Sharded scoring stage latency"),
    "serving_queue_depth_curves": ("gauge", "curves", "Curves in the micro-batch queue"),
    "serving_inflight_curves": ("gauge", "curves", "Curves swapped out by an unresolved flush"),
    "serving_served_curves_total": ("counter", "curves", "Curves scored by the service"),
    "serving_served_requests_total": ("counter", "requests", "Requests resolved successfully"),
    "serving_failed_requests_total": ("counter", "requests", "Requests whose scoring group failed"),
    "serving_flushes_total": ("counter", "count", "Micro-batch queue flushes"),
    "serving_flush_curves": ("histogram", "curves", "Curves resolved per flush"),
    "serving_flush_seconds": ("histogram", "seconds", "Flush wall time"),
    "serving_accepted_requests_total": ("counter", "requests", "HTTP requests accepted"),
    "serving_shed_requests_total": ("counter", "requests", "HTTP requests shed with 429"),
    "serving_request_seconds": ("histogram", "seconds", "End-to-end HTTP request latency"),
    "serving_decode_seconds": ("histogram", "seconds", "Scoring request body parse time"),
}


class Telemetry:
    """Live telemetry: a metrics registry plus a span tracer.

    Parameters
    ----------
    registry / tracer:
        Pre-built components to share; fresh ones are created when
        omitted.  Sharing one registry across services/contexts is how
        multiple layers aggregate into a single ``/metrics`` surface.
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------ metrics
    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, **labels)

    # ------------------------------------------------------------------ tracing
    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def start_span(self, name: str, **attrs):
        return self.tracer.start_span(name, **attrs)

    def current_trace_id(self) -> str | None:
        return self.tracer.current_trace_id()

    # ------------------------------------------------------------------ export
    def snapshot(self) -> dict:
        return self.registry.to_dict()

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Telemetry(families={len(self.registry.families())})"


class _NullCounter:
    __slots__ = ()
    name = labels = None
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = labels = None
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = labels = None
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return float("nan")

    def merge(self, other) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class _NullSpan:
    __slots__ = ()
    trace_id = None
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, **attrs) -> None:
        pass

    def end(self) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled default: every instrument and span is a shared no-op.

    ``enabled`` is ``False`` so hot loops can hoist the check; even
    unhoisted, an update through a null instrument is one method call.
    """

    enabled = False
    registry = None
    tracer = None

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=None, **labels) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def start_span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current_trace_id(self) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTelemetry()"


#: The process-wide disabled default every layer falls back to.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(obj, explicit=None):
    """The telemetry handle for a layer: ``explicit`` > ``obj.telemetry`` > null.

    ``obj`` is typically an :class:`~repro.engine.ExecutionContext` (or
    ``None``); raises when an explicit handle is not a telemetry object.
    """
    if explicit is not None:
        if not isinstance(explicit, (Telemetry, NullTelemetry)):
            raise ValidationError(
                f"telemetry must be a Telemetry or NullTelemetry, got "
                f"{type(explicit).__name__}"
            )
        return explicit
    telemetry = getattr(obj, "telemetry", None) if obj is not None else None
    return telemetry if telemetry is not None else NULL_TELEMETRY
