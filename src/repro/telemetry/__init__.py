"""Telemetry: tracing, metrics, and fleet observability.

Four pillars (see DESIGN.md "Observability"):

* :mod:`repro.telemetry.trace` — trace/span propagation over the
  virtual clock, with causal-tree reconstruction per transfer; a
  span's duration is its record of where virtual time went;
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms with Prometheus-style text exposition and optional
  trace-id exemplars per bucket;
* :mod:`repro.telemetry.flightrecorder` — the per-job black box:
  causal records folded from the event log's scheduler/recovery/
  transfer events when read, keyed by trace id;
* :mod:`repro.telemetry.slo` — declarative objectives with
  multi-window burn-rate alerting over virtual time.

Every :class:`~repro.sim.world.World` owns the first two as
``world.tracer`` and ``world.metrics``; the last two attach on demand
via ``world.enable_observability()``.

Telemetry has two levels, chosen per world.  Metrics are always kept.
Spans and events are kept only by ``World(trace=True)``, which flight
recording also requires; the default world keeps neither, delivers
events to log subscribers only, and raises
:class:`~repro.errors.TelemetryNotRecordedError` on any read of them.
"""

from repro.telemetry.flightrecorder import FlightEvent, FlightRecord, FlightRecorder
from repro.telemetry.metrics import (
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Sample,
)
from repro.telemetry.slo import (
    BurnWindow,
    ServiceObjective,
    SLOEngine,
    default_slos,
    wire_slos,
)
from repro.telemetry.trace import Span, Trace, TraceContext, Tracer, TimelineNode

__all__ = [
    "BurnWindow",
    "Counter",
    "Exemplar",
    "FlightEvent",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SLOEngine",
    "Sample",
    "ServiceObjective",
    "Span",
    "TimelineNode",
    "Trace",
    "TraceContext",
    "Tracer",
    "default_slos",
    "wire_slos",
]
