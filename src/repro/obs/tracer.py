"""Span/instant tracing over simulated time.

A :class:`Tracer` records what the simulator's entities were doing and
when, on named **tracks**.  A track is a (process, thread) pair in the
Chrome trace-event sense: the exporters map one *pid* per flash channel
(plus one for the query engine and one for the event scheduler) and one
*tid* per chip, bus, or accelerator, so ``chrome://tracing`` / Perfetto
renders the SSD the way the paper draws it — channels as swimlane
groups, their components as lanes.

Two record kinds cover everything the simulation does:

* **complete spans** (:class:`Span`) — an occupancy with a start and a
  duration, e.g. one array read holding a plane, one page transfer
  holding a channel bus, one per-page SCN compute holding an
  accelerator.  The simulator schedules work with known durations, so
  spans are recorded at *start* time in one call, never as a
  begin/end pair.
* **instants** (:class:`Instant`) — zero-duration markers, e.g. every
  event the :class:`~repro.sim.Simulator` dispatches (category
  ``sim.event``, used to reconcile the trace against
  ``events_processed``) or a failed read under fault injection.

This is the *resource* view of one device.  A query's own timeline —
a cluster query's scatter legs, failover, hedges and cancelled losers —
is a span tree in :mod:`repro.obs.dtrace`.

The overhead contract: tracing appends records to Python lists and
never touches the event heap, so **simulated** timings are identical
with or without a tracer (regression-tested); and an absent
tracer costs one ``is None`` check per hook, because instrumented
components resolve their track handles to ``None`` up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple


class TrackHandle(NamedTuple):
    """Resolved (pid, tid) identity of one timeline lane."""

    pid: int
    tid: int


@dataclass(frozen=True)
class Span:
    """One complete occupancy: ``[start, start + duration]`` on a track."""

    name: str
    cat: str
    start: float
    duration: float
    track: TrackHandle
    args: Optional[Dict[str, object]] = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Instant:
    """One zero-duration marker on a track."""

    name: str
    cat: str
    time: float
    track: TrackHandle
    args: Optional[Dict[str, object]] = None


@dataclass
class Tracer:
    """Recording tracer: interned tracks + append-only span/instant logs."""

    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._next_tid: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # tracks
    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> TrackHandle:
        """Intern a (process, thread) pair; stable across repeat calls."""
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids)
            self._pids[process] = pid
            self._next_tid[pid] = 0
        key = (pid, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next_tid[pid]
            self._next_tid[pid] = tid + 1
            self._tids[key] = tid
        return TrackHandle(pid, tid)

    @property
    def process_names(self) -> Dict[int, str]:
        """pid -> human name, for exporter metadata."""
        return {pid: name for name, pid in self._pids.items()}

    @property
    def thread_names(self) -> Dict[Tuple[int, int], str]:
        """(pid, tid) -> human name, for exporter metadata."""
        return {(pid, tid): name for (pid, name), tid in self._tids.items()}

    def track_name(self, track: TrackHandle) -> str:
        """Render a track as ``process/thread`` for reports."""
        process = self.process_names.get(track.pid, f"pid{track.pid}")
        thread = self.thread_names.get(tuple(track), f"tid{track.tid}")
        return f"{process}/{thread}"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def complete(
        self,
        track: TrackHandle,
        name: str,
        start: float,
        duration: float,
        cat: str = "",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one complete span (start and duration both known)."""
        self.spans.append(Span(name, cat, start, duration, track, args))

    def instant(
        self,
        track: TrackHandle,
        name: str,
        time: float,
        cat: str = "",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one zero-duration marker."""
        self.instants.append(Instant(name, cat, time, track, args))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        """Number of complete spans recorded so far."""
        return len(self.spans)

    def count(self, cat: str) -> int:
        """Records (spans + instants) in one category."""
        return sum(1 for s in self.spans if s.cat == cat) + sum(
            1 for i in self.instants if i.cat == cat
        )

    @property
    def end_time(self) -> float:
        """Latest simulated time any record touches (0.0 when empty)."""
        end = 0.0
        for s in self.spans:
            end = max(end, s.end)
        for i in self.instants:
            end = max(end, i.time)
        return end
