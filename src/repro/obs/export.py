"""Exporters: Chrome trace JSON, latency breakdowns, utilization, profiles.

Everything in here is a pure function of a :class:`~repro.obs.Tracer`
(and, for breakdowns, an
:class:`~repro.core.event_query.EventQueryResult`), so exports can run
after the simulation with zero effect on it.

The Chrome export emits the `Trace Event Format`_ JSON that both
``chrome://tracing`` and Perfetto load: ``X`` (complete) events for
spans, ``i`` (instant) events for markers, and ``M`` metadata naming
each pid/tid.  Track interning in the tracer already assigned one pid
per flash channel and one tid per chip/bus/accelerator, so the viewer
groups lanes by channel without any post-processing.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.event_query import EventQueryResult


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """Render a tracer as a Chrome/Perfetto trace-event dict.

    Sim-time seconds map to trace microseconds (the format's native
    unit).  Span count is preserved exactly: one ``X`` event per span,
    one ``i`` event per instant, plus metadata — so tests can reconcile
    ``len(traceEvents)`` against the tracer and the simulator.
    """
    events: List[Dict[str, object]] = []
    for pid, name in sorted(tracer.process_names.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
    for (pid, tid), name in sorted(tracer.thread_names.items()):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name},
        })
    for s in tracer.spans:
        event: Dict[str, object] = {
            "name": s.name, "cat": s.cat or "span", "ph": "X",
            "pid": s.track.pid, "tid": s.track.tid,
            "ts": s.start * 1e6, "dur": s.duration * 1e6,
        }
        if s.args:
            event["args"] = dict(s.args)
        events.append(event)
    for i in tracer.instants:
        event = {
            "name": i.name, "cat": i.cat or "instant", "ph": "i", "s": "t",
            "pid": i.track.pid, "tid": i.track.tid, "ts": i.time * 1e6,
        }
        if i.args:
            event["args"] = dict(i.args)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh)
    return path


# ----------------------------------------------------------------------
# per-query latency breakdown
# ----------------------------------------------------------------------
@dataclass
class LatencyBreakdown:
    """End-to-end query latency split into serial components.

    The components are the query's actual serial structure — the
    overlapped flash+compute scan, then the engine's dispatch, top-K
    merge, and accelerator setup — so they **sum to the end-to-end
    latency exactly** (same floats the simulator added), which is the
    property the acceptance test checks.
    """

    total_seconds: float
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def component_sum(self) -> float:
        """Sum of all components, bit-identical to the simulator's total.

        The tail components are accumulated first and then added to the
        head — the same association order the simulator used
        (``scan + (dispatch + merge + setup)``) — so exact equality with
        ``total_seconds`` survives float non-associativity.
        """
        values = list(self.components.values())
        if not values:
            return 0.0
        tail = 0.0
        for value in values[1:]:
            tail += value
        return values[0] + tail

    def fraction(self, name: str) -> float:
        """Share of total latency spent in component ``name`` (0..1)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.components.get(name, 0.0) / self.total_seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: totals, components, and their shares."""
        return {
            "total_seconds": self.total_seconds,
            "components": dict(self.components),
            "fractions": {
                name: self.fraction(name) for name in self.components
            },
        }

    def table(self, title: str = "Per-query latency breakdown"):
        """Render as an :class:`~repro.analysis.Table`."""
        from repro.analysis.reporting import Table, format_seconds

        table = Table(title, ["Component", "Time", "Share"])
        for name, seconds in self.components.items():
            table.add_row(name, format_seconds(seconds),
                          f"{self.fraction(name) * 100:5.1f}%")
        table.add_row("total", format_seconds(self.total_seconds), "100.0%")
        return table


def query_breakdown(result: "EventQueryResult") -> LatencyBreakdown:
    """Breakdown of one event-driven query's end-to-end latency."""
    return LatencyBreakdown(
        total_seconds=result.total_seconds,
        components={
            "flash scan (overlapped I/O+compute)": result.scan_seconds,
            "engine dispatch": result.dispatch_seconds,
            "top-K merge": result.merge_seconds,
            "accelerator setup": result.setup_seconds,
        },
    )


# ----------------------------------------------------------------------
# utilization timelines and resource profiles
# ----------------------------------------------------------------------
#: span categories that describe query phases, not physical resources;
#: resource profiles and utilization timelines skip them by default
PHASE_CATEGORIES = frozenset({"engine.query", "engine.phase"})


def _busy_by_track(
    tracer: Tracer, exclude_cats: frozenset = PHASE_CATEGORIES
) -> Dict[Tuple[int, int], List]:
    by_track: Dict[Tuple[int, int], List] = {}
    for span in tracer.spans:
        if span.cat in exclude_cats:
            continue
        by_track.setdefault(tuple(span.track), []).append(span)
    return by_track


def utilization_timelines(
    tracer: Tracer,
    bins: int = 48,
    end: Optional[float] = None,
) -> Dict[str, List[float]]:
    """Busy fraction per time bin for every resource track.

    Engine *phase* spans (:data:`PHASE_CATEGORIES`) are skipped — they
    narrate the query, they don't occupy hardware.

    Each track's spans are clipped into ``bins`` equal windows over
    ``[0, end]`` (default: the tracer's last record); a fraction of 1.0
    means the resource never went idle in that window.  Exclusive
    resources emit non-overlapping spans, so fractions land in [0, 1];
    they are clamped anyway so an overlapping track cannot exceed 1.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    end = tracer.end_time if end is None else end
    out: Dict[str, List[float]] = {}
    if end <= 0:
        return out
    bin_width = end / bins
    for track, spans in _busy_by_track(tracer).items():
        busy = [0.0] * bins
        for span in spans:
            lo = max(0.0, span.start)
            hi = min(end, span.end)
            if hi <= lo:
                continue
            first = min(bins - 1, int(lo / bin_width))
            last = min(bins - 1, int(hi / bin_width))
            for b in range(first, last + 1):
                b_lo = b * bin_width
                b_hi = b_lo + bin_width
                busy[b] += max(0.0, min(hi, b_hi) - max(lo, b_lo))
        name = tracer.track_name(spans[0].track)
        out[name] = [min(1.0, b / bin_width) for b in busy]
    return out


@dataclass
class ResourceUsage:
    """Aggregate occupancy of one track over a window."""

    name: str
    busy_seconds: float
    spans: int
    window_seconds: float
    longest_idle_gap_s: float
    idle_gaps: int

    @property
    def utilization(self) -> float:
        if self.window_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / self.window_seconds)

    @property
    def idle_seconds(self) -> float:
        return max(0.0, self.window_seconds - self.busy_seconds)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of this track's occupancy figures."""
        return {
            "name": self.name,
            "busy_seconds": self.busy_seconds,
            "spans": self.spans,
            "utilization": self.utilization,
            "idle_seconds": self.idle_seconds,
            "longest_idle_gap_s": self.longest_idle_gap_s,
            "idle_gaps": self.idle_gaps,
        }


def profile_resources(
    tracer: Tracer,
    end: Optional[float] = None,
    top: Optional[int] = None,
) -> List[ResourceUsage]:
    """Per-track occupancy profile, busiest first.

    Idle-gap analysis walks each track's spans in start order and
    counts the gaps where the resource sat unoccupied between 0 and
    ``end`` — the windows a scheduling optimisation could reclaim.
    ``top`` keeps the ``top`` busiest (an integer >= 1); ``None``
    keeps every track.
    """
    if top is not None and not (
        isinstance(top, numbers.Integral)
        and not isinstance(top, bool)
        and top >= 1
    ):
        raise ValueError(f"top must be an integer >= 1, got {top!r}")
    end = tracer.end_time if end is None else end
    usages: List[ResourceUsage] = []
    for track, spans in _busy_by_track(tracer).items():
        ordered = sorted(spans, key=lambda s: (s.start, s.end))
        busy = sum(s.duration for s in ordered)
        longest_gap = 0.0
        gaps = 0
        cursor = 0.0
        for span in ordered:
            if span.start > cursor:
                gaps += 1
                longest_gap = max(longest_gap, span.start - cursor)
            cursor = max(cursor, span.end)
        if end > cursor:
            gaps += 1
            longest_gap = max(longest_gap, end - cursor)
        usages.append(ResourceUsage(
            name=tracer.track_name(ordered[0].track),
            busy_seconds=busy,
            spans=len(ordered),
            window_seconds=end,
            longest_idle_gap_s=longest_gap,
            idle_gaps=gaps,
        ))
    usages.sort(key=lambda u: (-u.busy_seconds, u.name))
    return usages[:top] if top is not None else usages
