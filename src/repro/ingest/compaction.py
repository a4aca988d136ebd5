"""Background compaction on the DES timeline.

A clustered (IVF) layout is a bet that the database does not move.  Once
ingest is live the bet decays: inserted rows land in an **unindexed
delta** the probe never visits unless asked, and tombstoned rows keep
occupying list slots (and costing flash reads).
:meth:`repro.index.device.IndexedDevice.query` makes that decay
measurable — probed recall against the exact top-K drifts down as the
delta grows, and ``include_delta=True`` buys it back at latency cost.

:class:`CompactionJob` is the repair: a background job on the DES
timeline that rewrites the delta back into the layout chunk by chunk,
through the measured write path (so the repair bandwidth shows up as
GC/WA, not as free work), and hands its report to an ``on_done``
callback — the lifecycle loop re-indexes there.  The job is
**preemptible** — a foreground query cancels the in-flight chunk and
pushes it past the query's completion, trading compaction progress for
query latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.api import DeepStoreApiError, check_counts, is_real
from repro.ingest.store import IngestError, Snapshot
from repro.sim import Event, Simulator


@dataclass(frozen=True)
class CompactionPolicy:
    """When and how aggressively to compact."""

    #: start a compaction once delta_fraction exceeds this
    delta_threshold: float = 0.25
    #: rows rewritten per DES chunk (smaller = more preemptible)
    chunk_rows: int = 256
    #: idle gap inserted after each chunk (bandwidth throttle)
    min_gap_s: float = 0.0

    def __post_init__(self) -> None:
        if not (is_real(self.delta_threshold, 0.0) and self.delta_threshold < 1):
            raise IngestError(
                f"delta_threshold must be in (0, 1), got {self.delta_threshold!r}"
            )
        check_counts(self, (("chunk_rows", 1),), IngestError)
        if not (is_real(self.min_gap_s) and 0 <= self.min_gap_s < math.inf):
            raise IngestError(
                f"min_gap_s must be finite and >= 0, got {self.min_gap_s!r}"
            )


@dataclass
class CompactionReport:
    """What one compaction run did and what it cost."""

    started_s: float
    finished_s: float
    rows_rewritten: int
    reclaimed_rows: int
    chunks: int
    preemptions: int
    write_seconds: float
    delta_before: float
    delta_after: float

    @property
    def duration_s(self) -> float:
        return self.finished_s - self.started_s


class CompactionJob:
    """Chunked, preemptible compaction on the DES timeline.

    The job snapshots the store when started; rows mutated *after* the
    snapshot simply land in the next delta.  Each chunk rewrites
    ``policy.chunk_rows`` rows through the device's write path and
    schedules the next chunk after the measured write time; a query can
    :meth:`preempt` the pending chunk to any later time.  On the last
    chunk the device's ``check_compaction`` may still refuse (the error
    leaves the store unmarked and the job inactive, and charges the
    rewritten chunks' write seconds); otherwise the store is marked
    compacted and ``on_done`` gets the report.
    """

    def __init__(
        self,
        device,  # LifecycleDevice (kept untyped to avoid an import cycle)
        db_id: int,
        policy: Optional[CompactionPolicy] = None,
    ):
        self.device = device
        self.db_id = db_id
        self.policy = policy or CompactionPolicy()
        self.active = False
        self.report: Optional[CompactionReport] = None
        self._sim: Optional[Simulator] = None
        self._event: Optional[Event] = None
        self._snapshot: Optional[Snapshot] = None
        self._pending: List[int] = []
        self._cursor = 0
        self._done_chunks = 0
        self._preemptions = 0
        self._write_seconds = 0.0
        self._started_s = 0.0
        self._delta_before = 0.0
        self._on_done: Optional[Callable[[CompactionReport], None]] = None

    # ------------------------------------------------------------------
    def due(self) -> bool:
        """Whether the policy says a compaction should start now."""
        state = self.device.lifecycle(self.db_id)
        return (
            not self.active
            and state.store.delta_fraction() > self.policy.delta_threshold
        )

    def start(
        self,
        sim: Simulator,
        on_done: Optional[Callable[[CompactionReport], None]] = None,
    ) -> None:
        """Snapshot the store and schedule the first chunk."""
        if self.active:
            raise IngestError("compaction already running")
        state = self.device.lifecycle(self.db_id)
        self._sim = sim
        self._snapshot = state.store.snapshot()
        self._delta_before = state.store.delta_fraction(self._snapshot)
        self._pending = state.delta_rows(self._snapshot)
        self._cursor = 0
        self._done_chunks = 0
        self._rows_rewritten = 0
        self._preemptions = 0
        self._write_seconds = 0.0
        self._started_s = sim.now
        self._on_done = on_done
        self.active = True
        self.report = None
        self._event = sim.schedule(sim.now, self._chunk, label="compact-chunk")

    def preempt(self, resume_at: float) -> bool:
        """A foreground query runs until ``resume_at``; yield to it.

        The in-flight chunk is suspended for the query's duration —
        its completion slips by ``resume_at - now`` — because the query
        owns the channels while it scans (the paper's busy-signal rule).
        Returns True if a chunk was actually displaced.
        """
        if not self.active or self._event is None or self._sim is None:
            return False
        delay = resume_at - self._sim.now
        if self._event.cancelled or delay <= 0:
            return False
        new_time = self._event.time + delay
        self._event.cancel()
        self._preemptions += 1
        self._event = self._sim.schedule(
            new_time, self._chunk, label="compact-chunk"
        )
        return True

    # ------------------------------------------------------------------
    def _chunk(self) -> None:
        assert self._sim is not None and self._snapshot is not None
        state = self.device.lifecycle(self.db_id)
        chunk = self._pending[self._cursor : self._cursor + self.policy.chunk_rows]
        self._cursor += len(chunk)
        seconds = 0.0
        if chunk:
            op = state.writepath.rewrite(chunk)
            seconds = op.seconds
            self._write_seconds += seconds
            self._done_chunks += 1
            self._rows_rewritten += len(chunk)
        if self._cursor < len(self._pending):
            self._event = self._sim.schedule(
                self._sim.now + seconds + self.policy.min_gap_s,
                self._chunk,
                label="compact-chunk",
            )
            return
        self._finish(state, seconds)

    def _finish(self, state, last_chunk_seconds: float) -> None:
        assert self._sim is not None and self._snapshot is not None
        self.active = False
        self._event = None
        # a refusal (a re-index that could not fill its lists) comes
        # before the store is marked, so the old layout stays on record;
        # the chunks already rewritten stay spent, so their seconds are
        # charged either way
        try:
            self.device.check_compaction(self.db_id, self._snapshot)
        except DeepStoreApiError:
            state.write_seconds += self._write_seconds
            raise
        # reclaim tombstones covered by the snapshot
        dead = state.dead_rows(self._snapshot)
        if dead:
            self._write_seconds += state.writepath.delete(dead).seconds
        reclaimed = state.store.mark_compacted(self._snapshot)
        state.write_seconds += self._write_seconds
        state.compactions += 1
        self.device.metrics.counter("ingest.compactions").inc()
        self.device.metrics.counter("ingest.reclaimed_rows").inc(reclaimed)
        self.report = CompactionReport(
            started_s=self._started_s,
            finished_s=self._sim.now + last_chunk_seconds,
            rows_rewritten=self._rows_rewritten,
            reclaimed_rows=reclaimed,
            chunks=self._done_chunks,
            preemptions=self._preemptions,
            write_seconds=self._write_seconds,
            delta_before=self._delta_before,
            delta_after=state.store.delta_fraction(),
        )
        if self._on_done is not None:
            self._on_done(self.report)
