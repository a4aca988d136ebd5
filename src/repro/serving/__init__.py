"""Concurrent query serving: arrivals, admission, batching, sweeps.

The paper evaluates one query at a time; the north star is a device
serving heavy traffic.  This package is the layer between: an open-loop
discrete-event serving model on top of :mod:`repro.sim` and the
per-query cost models, with the three mechanisms a loaded service
actually stands on —

* **arrival processes** (:mod:`repro.serving.arrivals`) — seeded
  Poisson and trace-driven open-loop schedules;
* **admission control** (:mod:`repro.serving.admission`) — a bounded
  queue with priority classes and ``reject`` / ``drop-oldest`` /
  ``deadline`` shedding policies;
* **batch formation** (:mod:`repro.serving.batcher`) — compatible
  (same-app/SCN) queries coalesced FIFO into shared flash scans, costed
  by the multi-query scheduler and degradable under injected
  accelerator failures.

:class:`QueryServer` composes them into one simulated service on
:class:`~repro.serving.plane.BatchPlane`, the batch-service loop the
multi-tenant plane drives too;
:func:`sweep_offered_load` produces the throughput-latency curve; and
:func:`build_serving_scorecard` / :func:`compare_scorecards` are the
machine-readable perf scorecard CI gates on (``repro serve`` is the
CLI front end).
"""

from repro.serving.admission import (
    POLICIES,
    AdmissionCounters,
    AdmissionQueue,
    QueuedQuery,
)
from repro.serving.arrivals import (
    INGEST_COMPAT,
    ArrivalEvent,
    offered_qps_of,
    poisson_arrivals,
    trace_arrivals,
)
from repro.serving.batcher import BatchCostModel, BatchPolicy
from repro.serving.report import curve_table, drop_timeline, queue_depth_timeline
from repro.serving.scorecard import (
    Drift,
    build_serving_scorecard,
    compare_scorecards,
    flatten,
    serving_metrics_snapshot,
)
from repro.serving.server import QueryServer, ServingConfig, ServingResult
from repro.serving.sweep import (
    DEFAULT_LOAD_FRACTIONS,
    ServingCurve,
    sweep_offered_load,
)

__all__ = [
    "ArrivalEvent",
    "INGEST_COMPAT",
    "poisson_arrivals",
    "trace_arrivals",
    "offered_qps_of",
    "AdmissionQueue",
    "AdmissionCounters",
    "QueuedQuery",
    "POLICIES",
    "BatchPolicy",
    "BatchCostModel",
    "QueryServer",
    "ServingConfig",
    "ServingResult",
    "ServingCurve",
    "sweep_offered_load",
    "DEFAULT_LOAD_FRACTIONS",
    "build_serving_scorecard",
    "compare_scorecards",
    "serving_metrics_snapshot",
    "Drift",
    "flatten",
    "curve_table",
    "queue_depth_timeline",
    "drop_timeline",
]
