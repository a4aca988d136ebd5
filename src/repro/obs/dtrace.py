"""Distributed tracing and critical-path latency attribution.

:mod:`repro.obs.tracer` answers "what was this *resource* doing" — one
lane per channel/chip/accelerator.  This module answers the dual
question, "what happened to this *query*", and is the one record of a
cluster query's timeline: :meth:`DeepStoreCluster.query
<repro.cluster.coordinator.DeepStoreCluster.query>` mints a
:class:`QueryTraceContext` for a fresh trace, records the fan-out, one
span per shard leg and the K-way gather, and renders each leg from its
scatter outcome — breaker rejections, failover detection or the
unavailable verdict, hedge winners *and* cancelled losers, and the
device run (or cache hit).
The span tree exports as Chrome trace-event JSON with flow
(``s``/``f``) arrows linking a query's spans across tracks.

On top of the span tree, :class:`CriticalPath` decomposes one query's
end-to-end seconds into named :class:`Segment`\\ s that **sum
bit-exactly** (``==`` on the float) to the total — the cluster-wide
extension of PR 2's per-device breakdown invariant.  Exactness is
engineered, not hoped for: every segment is the *recorded primary
float* the simulator actually added (never a subtraction residue), and
:meth:`CriticalPath.component_sum` replays the simulator's exact
association order via ordered **groups** — ``[[a], [b, c], [d]]``
folds as ``(a + ((b + c))) + d`` — so float non-associativity cannot
break equality.  Quantities that do *not* sit on the additive path
(hedge overlap saved, brownout level, GC inflation factors) live in
``info``, never in segments.

:class:`FleetAttribution` aggregates many critical paths to answer the
fleet question the paper's Fig. 2 asks of one device: *which segment
dominates the tail* — overall and among the slowest ``q``-percentile
queries — per segment kind.

Like the tracer, everything here is append-only bookkeeping off the
simulation's hot path: collectors never schedule events, so simulated
timings are identical with or without them (parity-tested), and every
hook sits behind one ``is not None`` check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.metrics import percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import ClusterQueryResult


# ----------------------------------------------------------------------
# trace contexts and spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryTraceContext:
    """Propagated identity of one span: mint children off it."""

    trace_id: int
    span_id: int
    parent_span_id: Optional[int] = None


@dataclass(frozen=True)
class QuerySpan:
    """One closed span of a query's causal tree."""

    span_id: int
    parent_span_id: Optional[int]
    trace_id: int
    name: str
    #: coarse stage taxonomy: ``cluster.query``, ``cluster.scatter``,
    #: ``cluster.shard``, ``cluster.attempt``, ``device.query``, ...
    kind: str
    #: logical lane the exporter maps to a pid (``cluster/coordinator``,
    #: ``cluster/shard 0``, ``device``, ...)
    track: str
    start_s: float
    end_s: float
    #: ``ok`` | ``partial`` | ``cancelled`` | ``rejected`` |
    #: ``unavailable`` — anything but ``ok`` also exports an instant
    #: marker so terminations are visible at a glance
    status: str = "ok"
    args: Optional[Dict[str, object]] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TraceCollector:
    """Append-only collector of query spans and cross-track flows.

    Ids are dense counters (no randomness), so two identical runs
    produce byte-identical exports.  Open spans live in a side table
    until :meth:`end_span` closes them; a balanced instrumentation
    leaves :attr:`open_count` at zero.
    """

    def __init__(self) -> None:
        self.spans: List[QuerySpan] = []
        #: (source span id, destination span id) causality arrows
        self.flows: List[Tuple[int, int]] = []
        self._open: Dict[int, Tuple[QueryTraceContext, str, str, str, float,
                                    Optional[Dict[str, object]]]] = {}
        self._next_trace = 0
        self._next_span = 0

    # -- minting -------------------------------------------------------
    def _mint(self, trace_id: int, parent: Optional[int]) -> QueryTraceContext:
        ctx = QueryTraceContext(trace_id, self._next_span, parent)
        self._next_span += 1
        return ctx

    def start_trace(
        self,
        name: str,
        at_s: float,
        kind: str,
        track: str,
        **args: object,
    ) -> QueryTraceContext:
        """Open a new trace's root span; returns its context."""
        trace_id = self._next_trace
        self._next_trace += 1
        ctx = self._mint(trace_id, None)
        self._open[ctx.span_id] = (ctx, name, kind, track, at_s, args or None)
        return ctx

    def start_span(
        self,
        parent: QueryTraceContext,
        name: str,
        at_s: float,
        kind: str,
        track: str,
        **args: object,
    ) -> QueryTraceContext:
        """Open a child span under ``parent``; returns its context."""
        ctx = self._mint(parent.trace_id, parent.span_id)
        self._open[ctx.span_id] = (ctx, name, kind, track, at_s, args or None)
        return ctx

    def end_span(
        self,
        ctx: QueryTraceContext,
        at_s: float,
        status: str = "ok",
        **args: object,
    ) -> QuerySpan:
        """Close an open span at ``at_s`` (extra args merged in)."""
        opened, name, kind, track, start_s, open_args = self._open.pop(
            ctx.span_id
        )
        merged = dict(open_args) if open_args else {}
        merged.update(args)
        span = QuerySpan(
            span_id=opened.span_id,
            parent_span_id=opened.parent_span_id,
            trace_id=opened.trace_id,
            name=name,
            kind=kind,
            track=track,
            start_s=start_s,
            end_s=at_s,
            status=status,
            args=merged or None,
        )
        self.spans.append(span)
        return span

    def add_span(
        self,
        parent: QueryTraceContext,
        name: str,
        start_s: float,
        end_s: float,
        kind: str,
        track: str,
        status: str = "ok",
        **args: object,
    ) -> QueryTraceContext:
        """Record an already-closed child span in one call."""
        ctx = self._mint(parent.trace_id, parent.span_id)
        self.spans.append(QuerySpan(
            span_id=ctx.span_id,
            parent_span_id=parent.span_id,
            trace_id=parent.trace_id,
            name=name,
            kind=kind,
            track=track,
            start_s=start_s,
            end_s=end_s,
            status=status,
            args=args or None,
        ))
        return ctx

    def flow(self, src: QueryTraceContext, dst: QueryTraceContext) -> None:
        """Draw a causality arrow from ``src``'s span to ``dst``'s."""
        self.flows.append((src.span_id, dst.span_id))

    # -- queries -------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def open_count(self) -> int:
        """Started-but-unclosed spans (0 in balanced instrumentation)."""
        return len(self._open)

    def trace_ids(self) -> List[int]:
        """Distinct trace ids with at least one closed span, sorted."""
        return sorted({s.trace_id for s in self.spans})


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def dtrace_chrome(collector: TraceCollector) -> Dict[str, object]:
    """Render a collector as one Chrome/Perfetto trace-event dict.

    One pid per logical track string; ``X`` events carry
    trace/span/parent/status args; non-``ok`` spans also get an ``i``
    marker at their end; every :meth:`TraceCollector.flow` arrow
    becomes an ``s``/``f`` pair.
    """
    pids: Dict[str, int] = {}
    for span in collector.spans:
        if span.track not in pids:
            pids[span.track] = len(pids)
    events: List[Dict[str, object]] = []
    for track, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": track},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
    span_by_id: Dict[int, QuerySpan] = {}
    for span in collector.spans:
        span_by_id[span.span_id] = span
        pid = pids[span.track]
        args: Dict[str, object] = {
            "trace": span.trace_id,
            "span": span.span_id,
            "status": span.status,
        }
        if span.parent_span_id is not None:
            args["parent"] = span.parent_span_id
        if span.args:
            args.update(span.args)
        events.append({
            "name": span.name, "cat": span.kind, "ph": "X",
            "pid": pid, "tid": 0,
            "ts": span.start_s * 1e6,
            "dur": max(0.0, span.duration_s) * 1e6,
            "args": args,
        })
        if span.status != "ok":
            events.append({
                "name": f"{span.name}:{span.status}", "cat": span.kind,
                "ph": "i", "s": "t", "pid": pid, "tid": 0,
                "ts": span.end_s * 1e6,
            })
    for flow_id, (src_id, dst_id) in enumerate(collector.flows):
        src = span_by_id.get(src_id)
        dst = span_by_id.get(dst_id)
        if src is None or dst is None:
            continue  # an endpoint never closed; drop the arrow
        events.append({
            "name": "flow", "cat": "dtrace.flow", "ph": "s",
            "id": flow_id, "pid": pids[src.track], "tid": 0,
            "ts": src.end_s * 1e6,
        })
        events.append({
            "name": "flow", "cat": "dtrace.flow", "ph": "f", "bp": "e",
            "id": flow_id, "pid": pids[dst.track], "tid": 0,
            "ts": dst.start_s * 1e6,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_dtrace(collector: TraceCollector, path: str) -> str:
    """Serialize :func:`dtrace_chrome` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dtrace_chrome(collector), fh)
    return path


# ----------------------------------------------------------------------
# critical-path attribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Segment:
    """One additive piece of a query's end-to-end latency."""

    name: str
    #: taxonomy key for fleet aggregation: ``fanout`` | ``detect`` |
    #: ``backoff`` | ``hedge_wait`` | ``scan`` | ``gather``
    kind: str
    seconds: float


@dataclass
class CriticalPath:
    """A query's end-to-end seconds decomposed into ordered segments.

    ``groups`` preserve the simulator's association order:
    :meth:`component_sum` folds each group left-to-right from 0.0, then
    folds the group totals left-to-right — so ``[[a], [b, c], [d]]``
    reproduces ``(a + (b + c)) + d`` exactly.  :func:`cluster_critical_path`
    records primary floats in the simulator's fold order, hence
    ``component_sum() == total_seconds`` bit-for-bit
    (:attr:`bit_exact` checks it).
    """

    total_seconds: float
    groups: List[List[Segment]] = field(default_factory=list)
    #: non-additive diagnostics (hedge overlap saved, brownout level,
    #: shard/replica ids, ...) — never folded into the sum
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def segments(self) -> List[Segment]:
        """All segments, flattened in fold order."""
        return [seg for group in self.groups for seg in group]

    def component_sum(self) -> float:
        """Replay the simulator's association order over the groups."""
        total: Optional[float] = None
        for group in self.groups:
            group_sum = 0.0
            for seg in group:
                group_sum += seg.seconds
            total = group_sum if total is None else total + group_sum
        return 0.0 if total is None else total

    @property
    def bit_exact(self) -> bool:
        """Whether the segments sum to the total with float ``==``."""
        return self.component_sum() == self.total_seconds

    def fraction(self, kind: str) -> float:
        """Share of the total attributed to one segment kind (0..1)."""
        if self.total_seconds <= 0:
            return 0.0
        return (
            sum(s.seconds for s in self.segments if s.kind == kind)
            / self.total_seconds
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot with the exactness verdict included."""
        return {
            "total_seconds": self.total_seconds,
            "bit_exact": self.bit_exact,
            "segments": [
                {"name": s.name, "kind": s.kind, "seconds": s.seconds}
                for s in self.segments
            ],
            "info": dict(self.info),
        }

    def table(self, title: str = "Critical-path attribution"):
        """Render as an :class:`~repro.analysis.Table`."""
        from repro.analysis.reporting import Table, format_seconds

        table = Table(title, ["Segment", "Kind", "Time", "Share"])
        for seg in self.segments:
            share = (
                seg.seconds / self.total_seconds * 100.0
                if self.total_seconds > 0 else 0.0
            )
            table.add_row(seg.name, seg.kind, format_seconds(seg.seconds),
                          f"{share:5.1f}%")
        table.add_row("total", "", format_seconds(self.total_seconds),
                      "100.0%")
        return table


def cluster_critical_path(result: "ClusterQueryResult") -> CriticalPath:
    """Attribute one cluster query's seconds along its slowest leg.

    The critical path of scatter-gather is ``fan-out -> slowest shard
    leg -> merge``; the slowest leg decomposes into the floats the
    scatter state machine actually accumulated: failover detection,
    retry backoff, hedge wait (only when the hedge *won* — a losing
    hedge never delays the leg), and the winning replica's scan.  Fold
    order ``(fanout + leg) + gather`` with the leg left-folded matches
    ``scatter_s + makespan_s + gather_s`` exactly, so the result is
    bit-exact for every cluster query.
    """
    crit = max(result.shards, key=lambda s: s.seconds)
    leg: List[Segment] = []
    if crit.detect_seconds != 0.0:
        leg.append(Segment(
            f"failover detect x{crit.failovers}", "detect",
            crit.detect_seconds,
        ))
    if crit.retry_pause_seconds != 0.0:
        leg.append(Segment(
            "retry backoff charged", "backoff", crit.retry_pause_seconds,
        ))
    if crit.unavailable:
        status = "unavailable"
    else:
        status = "ok"
        if crit.hedge_won:
            leg.append(Segment(
                "hedge wait (backup armed)", "hedge_wait",
                crit.hedge_wait_seconds,
            ))
        scan_name = (
            f"shard {crit.shard} cache hit"
            if crit.cache_hit
            else f"shard {crit.shard} scan (replica {crit.replica})"
        )
        leg.append(Segment(scan_name, "scan", crit.service_seconds))
    return CriticalPath(
        total_seconds=result.seconds,
        groups=[
            [Segment(f"scatter fan-out x{result.n_contacted}", "fanout",
                     result.scatter_seconds)],
            leg,
            [Segment(f"K-way gather ({result.merge.comparisons} cmp)",
                     "gather", result.gather_seconds)],
        ],
        info={
            "critical_shard": crit.shard,
            "critical_replica": crit.replica,
            "critical_status": status,
            "failovers": crit.failovers,
            "hedged": crit.hedged,
            "hedge_won": crit.hedge_won,
            "hedge_saved_s": crit.hedge_saved_seconds,
            "breaker_rejections": crit.breaker_rejections,
            "cache_hit": crit.cache_hit,
            "partial": result.partial,
            "unavailable_shards": result.unavailable_shards,
        },
    )


# ----------------------------------------------------------------------
# fleet aggregation
# ----------------------------------------------------------------------
class FleetAttribution:
    """Aggregate many critical paths into a fleet-level answer.

    The paper's Fig. 2 shows where one query's cycles go at each
    accelerator level; this answers the production version — *which
    segment kind dominates the slowest queries* — by summing segment
    seconds by kind over the queries at or above a latency percentile.
    """

    def __init__(self) -> None:
        self.paths: List[CriticalPath] = []

    def add(self, path: CriticalPath) -> None:
        """Fold one query's attribution into the fleet."""
        self.paths.append(path)

    @property
    def queries(self) -> int:
        return len(self.paths)

    @property
    def exact_fraction(self) -> float:
        """Share of queries whose segments sum bit-exactly (0..1)."""
        if not self.paths:
            return 0.0
        return sum(1 for p in self.paths if p.bit_exact) / len(self.paths)

    def totals_by_kind(
        self, paths: Optional[List[CriticalPath]] = None
    ) -> Dict[str, float]:
        """Total seconds per segment kind (sorted keys)."""
        paths = self.paths if paths is None else paths
        totals: Dict[str, float] = {}
        for path in paths:
            for seg in path.segments:
                totals[seg.kind] = totals.get(seg.kind, 0.0) + seg.seconds
        return dict(sorted(totals.items()))

    def tail_paths(self, q: float = 99.0) -> List[CriticalPath]:
        """Queries whose total is at or above the ``q``-th percentile."""
        if not self.paths:
            return []
        cut = percentile([p.total_seconds for p in self.paths], q)
        return [p for p in self.paths if p.total_seconds >= cut]

    def dominant_at(self, q: float = 99.0) -> Dict[str, object]:
        """Which segment kind dominates the slowest queries.

        Returns the dominant kind, its share of tail seconds, and the
        full per-kind breakdown over the tail cohort.
        """
        tail = self.tail_paths(q)
        totals = self.totals_by_kind(tail)
        grand = sum(totals.values())
        if not totals or grand <= 0:
            return {"percentile": q, "queries": len(tail),
                    "dominant": None, "share": 0.0, "by_kind": totals}
        dominant = max(totals, key=lambda k: (totals[k], k))
        return {
            "percentile": q,
            "queries": len(tail),
            "dominant": dominant,
            "share": totals[dominant] / grand,
            "by_kind": totals,
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready fleet summary (overall + p99 tail)."""
        return {
            "queries": self.queries,
            "exact_fraction": self.exact_fraction,
            "by_kind": self.totals_by_kind(),
            "p99": self.dominant_at(99.0),
        }

    def table(self, title: str = "Fleet latency attribution"):
        """Render per-kind totals as an :class:`~repro.analysis.Table`."""
        from repro.analysis.reporting import Table, format_seconds

        totals = self.totals_by_kind()
        grand = sum(totals.values())
        table = Table(title, ["Kind", "Total time", "Share"])
        for kind, seconds in totals.items():
            share = seconds / grand * 100.0 if grand > 0 else 0.0
            table.add_row(kind, format_seconds(seconds), f"{share:5.1f}%")
        return table
