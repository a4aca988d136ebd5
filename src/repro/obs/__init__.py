"""Observability: span tracing, metrics, and trace/profile exporters.

The paper's argument is an attribution argument — Fig. 2 attributes
baseline time to I/O, Fig. 9 attributes insensitivity to bus-limited
steady state, Fig. 12 attributes energy to flash reads — so the
simulator must be able to say *where* simulated time went, not just how
much of it passed.  This package is that layer:

* :class:`Tracer` — a device's resource lanes: span/instant recording
  with named process/thread tracks.  Components hold a track handle
  and record **complete spans** (start + known duration) as they
  schedule work; with no tracer
  attached every hook is a single ``is None`` check, and tracing never
  schedules events of its own, so simulated timings are bit-identical
  with tracing on, off, or absent.
* :class:`MetricsRegistry` — named counters, gauges, and fixed-bucket
  histograms (nearest-rank p50/p99) that components register into.
  :class:`~repro.faults.ReliabilityCounters` is a view over the same
  primitive, so fault tallies and performance metrics land in one
  snapshot.
* Exporters — Chrome ``chrome://tracing``/Perfetto JSON (one *pid* per
  flash channel, one *tid* per chip/bus/accelerator), per-query latency
  breakdowns whose components sum to the end-to-end latency, busy-
  fraction utilization timelines, and a busiest-resource / idle-gap
  profile.  ``python -m repro trace`` and ``python -m repro profile``
  are the CLI front ends.
* :class:`TraceCollector` + :class:`CriticalPath` — the one record of
  a cluster query's timeline (a causal span tree per query; the
  coordinator renders each scatter leg, hedge losers included, from
  its outcome; Chrome-flow export) and bit-exact critical-path
  attribution with :class:`FleetAttribution` tail analysis.
  ``python -m repro explain`` is the CLI front end.
* :class:`SloMonitor` — windowed SLO gauges over the DES timeline with
  declarative :class:`BurnRateRule` alerting; ``python -m repro slo``
  runs it over a chaos day and reports alert latency.
"""

from repro.obs.dtrace import (
    CriticalPath,
    FleetAttribution,
    QuerySpan,
    QueryTraceContext,
    Segment,
    TraceCollector,
    cluster_critical_path,
    dtrace_chrome,
    write_dtrace,
)
from repro.obs.export import (
    LatencyBreakdown,
    ResourceUsage,
    chrome_trace,
    profile_resources,
    query_breakdown,
    utilization_timelines,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    percentile,
)
from repro.obs.slo import (
    Alert,
    BurnRateRule,
    SloMonitor,
    SloSpec,
    default_chaos_monitor,
)
from repro.obs.tracer import Instant, Span, Tracer, TrackHandle

__all__ = [
    "Tracer",
    "Span",
    "Instant",
    "TrackHandle",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "percentile",
    "chrome_trace",
    "write_chrome_trace",
    "query_breakdown",
    "LatencyBreakdown",
    "utilization_timelines",
    "profile_resources",
    "ResourceUsage",
    "QueryTraceContext",
    "QuerySpan",
    "TraceCollector",
    "dtrace_chrome",
    "write_dtrace",
    "Segment",
    "CriticalPath",
    "cluster_critical_path",
    "FleetAttribution",
    "SloSpec",
    "BurnRateRule",
    "Alert",
    "SloMonitor",
    "default_chaos_monitor",
]
