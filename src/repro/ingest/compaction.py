"""Index staleness and background compaction.

A clustered (IVF) layout is a bet that the database does not move.  Once
ingest is live the bet decays: inserted rows land in an **unclustered
delta region** the probe-selection rule never visits, and tombstoned
rows keep occupying clustered pages.  :class:`DeltaAwareSearch` makes
that decay *measurable* — probed recall against the exact snapshot
top-K drifts down as the delta fraction grows (scanning the delta too
buys recall back at latency cost).

:class:`CompactionJob` is the repair: a background job on the DES
timeline that re-clusters the delta back into the layout chunk by
chunk, through the measured write path (so the repair bandwidth shows
up as GC/WA, not as free work).  The job is **preemptible** — a
foreground query cancels the in-flight chunk and pushes it past the
query's completion, trading compaction progress for query latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.deepstore import DeepStoreSystem
from repro.index.kmeans import train_kmeans
from repro.index.lists import InvertedLists
from repro.index.router import CentroidRouter, is_nprobe
from repro.ingest.store import IngestError, Snapshot, is_count
from repro.sim import Event, Simulator


# ----------------------------------------------------------------------
# delta-aware probed search
# ----------------------------------------------------------------------
@dataclass
class DeltaSearchResult:
    """Outcome of one probed query over a (possibly stale) layout."""

    feature_ids: np.ndarray
    scores: np.ndarray
    probed_rows: int
    delta_rows: int
    total_visible: int
    scan_seconds: float

    @property
    def scan_fraction(self) -> float:
        return self.probed_rows / max(1, self.total_visible)

    def recall_against(self, exact_ids: np.ndarray) -> float:
        """Fraction of the exact snapshot top-K this result recovered."""
        if len(exact_ids) == 0:
            return 1.0
        got = set(int(i) for i in self.feature_ids)
        return len(got & set(int(i) for i in exact_ids)) / len(exact_ids)


class DeltaAwareSearch:
    """Probed IVF search over a mutable database with a delta region.

    The inverted lists cover only the rows present at the last
    compaction (``store.clustered_ids``); rows inserted since live in
    the delta and are *invisible* to probing unless
    ``include_delta=True`` — exactly the staleness/latency trade the
    lifecycle benchmark sweeps.  The lists come from
    :func:`~repro.index.kmeans.train_kmeans`, the probe from the
    SCN-scored :class:`~repro.index.router.CentroidRouter`, and every
    score from the device's canonical chunked scan.  The probed scan is
    priced at channel level; routing is not charged.
    """

    def __init__(
        self,
        device,  # LifecycleDevice (kept untyped to avoid an import cycle)
        db_id: int,
        model_id: int,
        n_clusters: int = 16,
        seed: int = 0,
    ):
        if not is_count(n_clusters, 1):
            raise IngestError(
                f"n_clusters must be an integer >= 1, got {n_clusters!r}"
            )
        self.graph = device._models.get(model_id)
        if self.graph is None:
            raise IngestError(f"unknown model id {model_id}")
        self.device = device
        self.db_id = db_id
        self.store = device.lifecycle(db_id).store
        self.n_clusters = n_clusters
        self.seed = seed
        self.system = DeepStoreSystem.at_level("channel")
        self._cluster(self.store.clustered_ids)
        self.rebuilds = 0

    # ------------------------------------------------------------------
    def _cluster(self, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            raise IngestError("cannot cluster an empty id set")
        k = min(self.n_clusters, len(ids))
        centroids, assignments = train_kmeans(
            self.store.rows(ids), k, seed=self.seed
        )
        self.lists = InvertedLists(ids, assignments, k)
        self.router = CentroidRouter(
            centroids, self.device._system("ssd"), self.graph,
            feature_bytes=self.store.dim * 4,
            page_bytes=self.system.ssd.geometry.page_bytes,
        )

    def rebuild(self, snapshot: Snapshot) -> None:
        """Re-cluster everything visible at ``snapshot`` (compaction)."""
        self._cluster(self.store.visible_ids(snapshot))
        self.rebuilds += 1

    # ------------------------------------------------------------------
    def _scan(
        self, qfv: np.ndarray, ids: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.device._scan_ids(
            self.graph, qfv, self.device._store(self.db_id), ids, k
        )

    def query(
        self,
        qfv: np.ndarray,
        k: int,
        n_probe: int,
        include_delta: bool = False,
        snapshot: Optional[Snapshot] = None,
    ) -> DeltaSearchResult:
        """Top-K over the probed lists (optionally plus the delta)."""
        if not is_count(k, 1):
            raise IngestError(f"k must be an integer >= 1, got {k!r}")
        n_lists = self.lists.n_lists
        if not (is_nprobe(n_probe) and n_probe <= n_lists):
            raise IngestError(
                f"n_probe must be an integer in [1, {n_lists}], got {n_probe!r}"
            )
        snap = snapshot or self.store.snapshot()
        qfv = np.asarray(qfv, dtype=np.float32).reshape(-1)
        decision = self.router.route(qfv, int(n_probe), self.device._score_features)
        probed = self.lists.probed_ids(decision.list_ids)
        visible = self.store.visible_ids(snap)
        # tombstones in probed lists are filtered from results but
        # their pages were still read — count them in the scanned rows
        scanned_cost = len(probed)
        scanned = probed[np.isin(probed, visible)]
        delta = self.store.delta_ids(snap)
        if include_delta:
            scanned = np.concatenate([scanned, delta])
            scanned_cost += len(delta)
        if len(scanned) == 0:
            raise IngestError("probed clusters hold no visible rows")
        ids, scores = self._scan(qfv, scanned, k)
        return DeltaSearchResult(
            feature_ids=ids,
            scores=scores,
            probed_rows=scanned_cost,
            delta_rows=len(delta),
            total_visible=len(visible),
            scan_seconds=self.system.pass_seconds(
                self.graph, scanned_cost, self.store.dim * 4,
                self.system.ssd.geometry.page_bytes,
            ),
        )

    def exact_topk(self, qfv: np.ndarray, k: int,
                   snapshot: Optional[Snapshot] = None) -> np.ndarray:
        """Ground truth: exact top-K over everything visible."""
        visible = self.store.visible_ids(snapshot)
        if len(visible) == 0:
            return visible
        qfv = np.asarray(qfv, dtype=np.float32).reshape(-1)
        return self._scan(qfv, visible, k)[0]


# ----------------------------------------------------------------------
# the background compaction job
# ----------------------------------------------------------------------
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
        # each test is written so that NaN fails it
        if not 0 < self.delta_threshold < 1:
            raise IngestError(
                f"delta_threshold must be in (0, 1), got {self.delta_threshold!r}"
            )
        if not is_count(self.chunk_rows, 1):
            raise IngestError(
                f"chunk_rows must be an integer >= 1, got {self.chunk_rows!r}"
            )
        if not 0 <= self.min_gap_s < math.inf:
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
    """Chunked, preemptible re-clustering on the DES timeline.

    The job snapshots the store when started; rows mutated *after* the
    snapshot simply land in the next delta.  Each chunk rewrites
    ``policy.chunk_rows`` rows through the device's write path and
    schedules the next chunk after the measured write time; a query can
    :meth:`preempt` the pending chunk to any later time.  On the last
    chunk the store is marked compacted and the search layout rebuilt.
    """

    def __init__(
        self,
        device,  # LifecycleDevice (kept untyped to avoid an import cycle)
        db_id: int,
        search: Optional[DeltaAwareSearch] = None,
        policy: Optional[CompactionPolicy] = None,
    ):
        self.device = device
        self.db_id = db_id
        self.search = search
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
        # reclaim tombstones covered by the snapshot
        dead = state.dead_rows(self._snapshot)
        if dead:
            self._write_seconds += state.writepath.delete(dead).seconds
        reclaimed = state.store.mark_compacted(self._snapshot)
        if self.search is not None:
            self.search.rebuild(self._snapshot)
        state.write_seconds += self._write_seconds
        state.compactions += 1
        self.device.metrics.counter("ingest.compactions").inc()
        self.device.metrics.counter("ingest.reclaimed_rows").inc(reclaimed)
        self.active = False
        self._event = None
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
