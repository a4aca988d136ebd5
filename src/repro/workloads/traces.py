"""Query-trace capture and replay (paper §5).

The paper's methodology is trace-driven: "we collect the query traces
from the applications running on the baseline GPU+SSD system, and pass
them as input to the query engine in our simulator".  This module
provides that plumbing:

* :func:`capture_trace` — turns a :class:`~repro.workloads.queries.
  QueryStream` into a timestamped trace (Poisson arrivals at a chosen
  offered rate, the standard open-loop model);
* byte-level serialization so traces can be saved and re-fed;
* :func:`replay_trace` — an open-loop single-server FIFO replay against
  any per-query service-time function (a GPU+SSD cost model, a DeepStore
  level, a cache-fronted device), producing the latency distribution —
  the quantity a shared storage service actually cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.workloads.queries import QueryStream


@dataclass(frozen=True)
class TracedQuery:
    """One trace entry: arrival time + the query itself."""

    arrival_s: float
    qfv: np.ndarray
    intent: int


@dataclass
class QueryTrace:
    """A reproducible, serializable stream of timestamped queries."""

    app: str
    queries: List[TracedQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def duration_s(self) -> float:
        return self.queries[-1].arrival_s if self.queries else 0.0

    @property
    def offered_qps(self) -> float:
        if len(self.queries) < 2 or self.duration_s == 0:
            return 0.0
        return len(self.queries) / self.duration_s

    # ------------------------------------------------------------------


def capture_trace(
    stream: QueryStream,
    n_queries: int,
    offered_qps: float,
    app: str = "",
    seed: int = 0,
) -> QueryTrace:
    """Capture a Poisson-arrival trace from a query stream."""
    if offered_qps <= 0:
        raise ValueError("offered_qps must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / offered_qps, n_queries)
    arrivals = np.cumsum(gaps)
    trace = QueryTrace(app=app or f"dim{stream.dim}")
    for record, arrival in zip(stream.iter_queries(n_queries), arrivals):
        trace.queries.append(
            TracedQuery(float(arrival), record.qfv, record.intent)
        )
    return trace


@dataclass
class LatencyDistribution:
    """Summary of per-query latencies from a replay."""

    latencies_s: np.ndarray
    busy_s: float
    span_s: float

    def percentile(self, p: float) -> float:
        """The p-th percentile latency in seconds."""
        if not len(self.latencies_s):
            return 0.0
        return float(np.percentile(self.latencies_s, p))

    @property
    def p50_s(self) -> float:
        return self.percentile(50)

    @property
    def p99_s(self) -> float:
        return self.percentile(99)

    @property
    def utilization(self) -> float:
        return self.busy_s / self.span_s if self.span_s > 0 else 0.0

    @property
    def saturated(self) -> bool:
        """Whether the server could not keep up with the offered load."""
        return self.utilization > 0.99


def replay_trace(
    trace: QueryTrace,
    service_seconds: Callable[[TracedQuery], float],
    servers: int = 1,
) -> LatencyDistribution:
    """Open-loop FIFO replay of a trace against a service-time model.

    ``service_seconds`` is invoked per query (it may consult a cache and
    therefore be stateful).  ``servers > 1`` models a pool of identical
    devices fed from one queue.
    """
    if servers <= 0:
        raise ValueError("servers must be positive")
    if not trace.queries:
        return LatencyDistribution(np.zeros(0), 0.0, 0.0)
    free_at = [0.0] * servers
    latencies = []
    busy = 0.0
    finish_last = 0.0
    for query in trace.queries:
        server = min(range(servers), key=free_at.__getitem__)
        start = max(query.arrival_s, free_at[server])
        service = service_seconds(query)
        if service < 0:
            raise ValueError("service time cannot be negative")
        finish = start + service
        free_at[server] = finish
        latencies.append(finish - query.arrival_s)
        busy += service
        finish_last = max(finish_last, finish)
    span = finish_last - trace.queries[0].arrival_s
    return LatencyDistribution(
        latencies_s=np.asarray(latencies), busy_s=busy / servers, span_s=span
    )
