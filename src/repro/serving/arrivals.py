"""Open-loop arrival processes for the query-serving layer.

A serving simulation is only as honest as its arrival model.  This
module generates **open-loop** arrivals — queries arrive on their own
schedule regardless of whether the service keeps up, which is what
exposes queueing delay and forces load shedding (a closed loop would
politely self-throttle and hide both):

* :func:`poisson_arrivals` — deterministic seeded Poisson process at a
  chosen offered rate, with query content drawn from a
  :class:`~repro.workloads.queries.QueryStream` so the query cache sees
  realistic semantic locality;
* :func:`trace_arrivals` — interarrival times lifted from a captured
  :class:`~repro.workloads.traces.QueryTrace` (paper §5's trace-driven
  methodology), optionally rescaled to a target offered rate so one
  trace sweeps a whole load axis.

Both return plain :class:`ArrivalEvent` lists of read queries:
timestamp, query vector, ground-truth intent, and a priority class for
the admission queue.  Write arrivals come from the multi-tenant day
trace (:mod:`repro.tenancy.trace`), batched under the reserved
:data:`INGEST_COMPAT` key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.workloads.queries import QueryStream
from repro.workloads.traces import QueryTrace

#: batch-compatibility key reserved for the tenancy plane's ingest
#: writes — writes never share a scan batch with queries
INGEST_COMPAT = "__ingest__"


@dataclass(slots=True)
class ArrivalEvent:
    """One request arriving at the device, with its admission priority.

    ``priority`` is an integer class: **0 is the most important**;
    larger numbers are served after smaller ones.  ``compat`` is the
    batch-compatibility key (app/SCN identity) — only queries with equal
    keys may share a scan.  Slotted, one per generated arrival; never
    hashed, and never changed once built.
    """

    time_s: float
    qfv: Optional[np.ndarray] = None
    intent: int = -1
    priority: int = 0
    compat: str = ""


def poisson_arrivals(
    n_queries: int,
    offered_qps: float,
    seed: int = 0,
    stream: Optional[QueryStream] = None,
    compat: str = "",
    priority_of: Optional[Callable[[int], int]] = None,
) -> List[ArrivalEvent]:
    """A seeded Poisson arrival process at ``offered_qps``.

    Interarrival gaps are exponential draws from
    ``np.random.default_rng(seed)``, so the schedule is bit-identical
    for a given ``(n_queries, offered_qps, seed)``.  With a ``stream``,
    each arrival carries a generated query (QFV + intent); without one,
    arrivals are timing-only (the server then skips the query cache).
    ``priority_of`` maps the arrival index to a priority class
    (default: everything class 0).
    """
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    if offered_qps <= 0:
        raise ValueError("offered_qps must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / offered_qps, n_queries))
    records = stream.generate(n_queries) if stream is not None else None
    events: List[ArrivalEvent] = []
    for i, t in enumerate(arrivals):
        record = records[i] if records is not None else None
        events.append(
            ArrivalEvent(
                time_s=float(t),
                qfv=record.qfv if record is not None else None,
                intent=record.intent if record is not None else -1,
                priority=priority_of(i) if priority_of is not None else 0,
                compat=compat,
            )
        )
    return events


def trace_arrivals(
    trace: QueryTrace,
    target_qps: Optional[float] = None,
    compat: str = "",
    priority_of: Optional[Callable[[int], int]] = None,
) -> List[ArrivalEvent]:
    """Arrivals from a captured trace, optionally rescaled.

    With ``target_qps`` set, every interarrival gap is scaled by
    ``trace.offered_qps / target_qps`` — burstiness (the *shape* of the
    gaps) is preserved while the mean rate moves, which is how one
    captured trace drives a whole offered-load sweep.
    """
    if not trace.queries:
        return []
    scale = 1.0
    if target_qps is not None:
        if target_qps <= 0:
            raise ValueError("target_qps must be positive")
        observed = trace.offered_qps
        if observed > 0:
            scale = observed / target_qps
    events: List[ArrivalEvent] = []
    for i, q in enumerate(trace.queries):
        events.append(
            ArrivalEvent(
                time_s=q.arrival_s * scale,
                qfv=q.qfv,
                intent=q.intent,
                priority=priority_of(i) if priority_of is not None else 0,
                compat=compat or trace.app,
            )
        )
    return events


def offered_qps_of(events: List[ArrivalEvent]) -> float:
    """Mean offered rate of an arrival schedule (0.0 when degenerate)."""
    if len(events) < 2:
        return 0.0
    span = events[-1].time_s - events[0].time_s
    return (len(events) - 1) / span if span > 0 else 0.0
