"""A DeepStore device whose databases mutate while serving queries.

:class:`LifecycleDevice` extends :class:`repro.core.api.DeepStoreDevice`
with the data-lifecycle verbs — ``insert_db`` / ``delete_db_rows`` /
``update_db_row`` / ``compact_db`` — wired to three mechanisms:

1. **Epoch snapshots** (:class:`repro.ingest.store.MutableFeatureStore`)
   — every query scans a consistent view; tombstoned ids never appear
   in results, and results are exact top-K over the rows visible at the
   query's snapshot (property-tested against an oracle replay).
2. **The measured write path**
   (:class:`repro.ingest.writepath.IngestWritePath`) — inserts and
   compaction moves flow through the page-mapped FTL, so GC pressure
   and write amplification come from the FTL's own counters, and the
   resulting bus occupancy slows query scans through
   :class:`repro.ssd.host_io.InterferenceModel`.
3. **Epoch-tagged query-cache invalidation** (inherited) — a result
   cached before a mutation can never satisfy a query issued after it.

**One query path**: :meth:`LifecycleDevice.query` only chooses the rows
that :meth:`repro.core.api.DeepStoreDevice._run_query` scores and prices.
With *zero mutations* it picks the static range scan, so results,
latencies, and cache behaviour are bit-identical to a static device.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import DeepStoreApiError, DeepStoreDevice, PlannedScan, QueryHandle
from repro.core.topk import topk_order, topk_select
from repro.ingest.store import IngestError, MutableFeatureStore, Snapshot
from repro.ingest.writepath import IngestWritePath, WriteOp
from repro.nn import Graph
from repro.obs.metrics import MetricsRegistry
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.host_io import HostIoWorkload, InterferenceModel, POLICIES


@dataclass
class LifecycleState:
    """Per-database lifecycle machinery."""

    store: MutableFeatureStore
    writepath: IngestWritePath
    #: modelled seconds spent on mutations + compactions so far
    write_seconds: float = 0.0
    compactions: int = 0

    def dead_rows(self, snapshot: Snapshot) -> List[int]:
        """Rows hidden at ``snapshot`` that the write path still holds.

        A compaction reclaims them; ascending, as TRIM and free-list
        order shape later allocations.
        """
        hidden = np.ones(snapshot.n_rows, dtype=bool)
        hidden[self.store.visible_ids(snapshot)] = False
        held = self.writepath.has_row
        return [fid for fid in np.flatnonzero(hidden).tolist() if held(fid)]

    def delta_rows(self, snapshot: Snapshot) -> List[int]:
        """Visible rows outside the clustered layout the write path holds.

        A compaction rewrites them; ascending, like :meth:`dead_rows`.
        """
        held = self.writepath.has_row
        return [fid for fid in self.store.delta_ids(snapshot).tolist() if held(fid)]


@dataclass(frozen=True)
class DeviceCompaction:
    """Outcome of one device-level compaction pass."""

    seconds: float
    reclaimed_rows: int
    rewritten_rows: int
    write_amplification: float


@dataclass
class _BackgroundWrites:
    workload: HostIoWorkload
    policy: str = "share"


class LifecycleDevice(DeepStoreDevice):
    """``DeepStoreDevice`` + online ingest, one subclass."""

    def __init__(self, *args, metrics: Optional[MetricsRegistry] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._lifecycles: Dict[int, LifecycleState] = {}
        self._background: Optional[_BackgroundWrites] = None
        self._interference = InterferenceModel(self.ssd.config)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # lifecycle management
    # ------------------------------------------------------------------
    def enable_ingest(
        self,
        db_id: int,
        op_fraction: float = 0.07,
        region_blocks: int = 64,
        region_pages_per_block: int = 64,
        injector=None,
    ) -> None:
        """Arm a database for mutation (idempotent until first mutation).

        The ingest region must hold the base rows; a region too small
        for them is rejected before anything is armed.
        """
        if db_id in self._lifecycles:
            return
        meta = self.ssd.ftl.get(db_id)
        base = self._store(db_id)
        store = MutableFeatureStore(base)
        writepath = IngestWritePath(
            self.ssd,
            meta.feature_bytes,
            op_fraction=op_fraction,
            blocks=region_blocks,
            pages_per_block=region_pages_per_block,
        )
        capacity = writepath.free_pages * writepath.rows_per_page
        if store.n_rows > capacity:
            raise DeepStoreApiError(
                f"region_blocks={region_blocks} (x {region_pages_per_block} "
                f"pages) holds {capacity} rows; it must hold the "
                f"{store.n_rows} base rows of database {db_id}"
            )
        # the base rows are already on flash (written by write_db); seed
        # the page map so deletes/compactions can address them, then
        # zero the counters so WA reflects mutation traffic only
        writepath.append(range(store.n_rows))
        writepath.reset_stats()
        # attach write faults only after seeding, so program-retry
        # counters reflect mutation traffic rather than the base load
        writepath.injector = injector
        self._lifecycles[db_id] = LifecycleState(store=store, writepath=writepath)

    def lifecycle(self, db_id: int) -> LifecycleState:
        """The lifecycle state of an ingest-enabled database."""
        state = self._lifecycles.get(db_id)
        if state is None:
            raise DeepStoreApiError(
                f"database {db_id} is not ingest-enabled (call enable_ingest)"
            )
        return state

    # ------------------------------------------------------------------
    # mutation verbs
    # ------------------------------------------------------------------
    def insert_db(self, db_id: int, features: np.ndarray) -> np.ndarray:
        """Stream new rows in; returns their stable feature ids.

        A batch the ingest region cannot hold is rejected before the
        store, device rows, epoch, cache or write path change.
        """
        state = self.lifecycle(db_id)
        features = self._check_rows(state, features)
        ids = state.store.insert(features)
        # keep the base functional store + block-FTL metadata in sync so
        # scans, readDB, and ObjectIDs cover the new rows
        super().append_db(db_id, features)
        op = state.writepath.append(ids)
        self._account(state, op)
        self.metrics.counter("ingest.inserts").inc(len(ids))
        self._publish_gauges(db_id, state)
        return ids

    def delete_db_rows(self, db_id: int, ids: Sequence[int]) -> None:
        """Tombstone rows; flash pages are reclaimed at compaction."""
        state = self.lifecycle(db_id)
        ids = list(ids)
        try:
            state.store.delete(ids)
        except Exception as exc:
            raise DeepStoreApiError(str(exc)) from exc
        self._note_mutation(db_id)
        self.metrics.counter("ingest.deletes").inc(len(ids))
        self._publish_gauges(db_id, state)

    def update_db_row(self, db_id: int, fid: int, feature: np.ndarray) -> int:
        """Replace one row (tombstone + re-insert); returns the new id.

        The replacement is validated (and must fit the ingest region)
        before the old row is tombstoned, so a bad row leaves the store,
        epoch and write path untouched.
        """
        row = self._check_rows(self.lifecycle(db_id), np.reshape(feature, (1, -1)))
        self.delete_db_rows(db_id, [fid])
        new_ids = self.insert_db(db_id, row)
        self.metrics.counter("ingest.updates").inc()
        return int(new_ids[0])

    def compact_db(self, db_id: int) -> DeviceCompaction:
        """Reclaim tombstones and densify the delta region on flash.

        Results are unaffected (compaction moves rows, it does not
        change visibility), so the epoch does not advance and cached
        results stay valid; what changes is the *cost*: scans stop
        paying for dead pages.
        """
        state = self.lifecycle(db_id)
        snap = state.store.snapshot()
        self.check_compaction(db_id, snap)
        dead, delta = state.dead_rows(snap), state.delta_rows(snap)
        seconds = 0.0
        if dead:
            seconds += state.writepath.delete(dead).seconds
        if delta:
            seconds += state.writepath.rewrite(delta).seconds
        reclaimed = state.store.mark_compacted(snap)
        state.write_seconds += seconds
        state.compactions += 1
        self.metrics.counter("ingest.compactions").inc()
        self.metrics.counter("ingest.reclaimed_rows").inc(reclaimed)
        self._publish_gauges(db_id, state)
        return DeviceCompaction(
            seconds=seconds,
            reclaimed_rows=reclaimed,
            rewritten_rows=len(delta),
            write_amplification=state.writepath.write_amplification,
        )

    def check_compaction(self, db_id: int, snapshot: Snapshot) -> None:
        """Refuse to cluster ``snapshot`` before anything is rewritten.

        Both compaction paths (:meth:`compact_db` and the background
        :class:`~repro.ingest.compaction.CompactionJob`) call this before
        they touch the store.  The plain lifecycle device accepts every
        compaction; a device with a clustered index refuses one whose
        re-index would fail, so the old layout stays the one record.
        """

    # ------------------------------------------------------------------
    # interference coupling
    # ------------------------------------------------------------------
    def set_background_write_load(
        self, offered_load: float, policy: str = "share", read_fraction: float = 0.0
    ) -> None:
        """Declare the bus fraction background ingest currently occupies.

        Use :meth:`repro.ingest.writepath.IngestWritePath.offered_load`
        to turn a raw ingest bandwidth fraction into this number (it
        multiplies in the measured write amplification).  ``0`` clears
        the interference.
        """
        if policy not in POLICIES:
            raise DeepStoreApiError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        if offered_load <= 0:
            self._background = None
            return
        self._background = _BackgroundWrites(
            workload=HostIoWorkload(
                offered_load=min(1.0, offered_load), read_fraction=read_fraction
            ),
            policy=policy,
        )

    def _interfered(self, latency):
        """Stretch the scan's I/O-bound share under background writes."""
        if self._background is None:
            return latency
        limiting = max(
            latency.compute_spf, latency.io_spf, latency.bus_weight_spf
        )
        io_fraction = latency.io_spf / limiting if limiting > 0 else 1.0
        result = self._interference.evaluate(
            self._background.workload,
            self._background.policy,
            scan_io_fraction=min(1.0, io_fraction),
        )
        return dataclasses.replace(
            latency, scan_seconds=latency.scan_seconds * result.scan_slowdown
        )

    # ------------------------------------------------------------------
    # query (visible-rows plan)
    # ------------------------------------------------------------------
    def query(
        self,
        qfv: np.ndarray,
        k: int,
        model_id: int,
        db_id: int,
        db_start: int = 0,
        db_end: Optional[int] = None,
        accel_level: Optional[str] = None,
    ) -> QueryHandle:
        """``query`` over the rows visible at the database's snapshot."""
        state = self._lifecycles.get(db_id)
        if state is None or state.store.epoch == 0:
            return super().query(
                qfv, k, model_id, db_id, db_start, db_end, accel_level
            )
        handle = self._run_query(
            functools.partial(self._visible_plan, state),
            qfv, k, model_id, db_id, db_start, db_end, accel_level,
        )
        hit = self.get_results(handle).cache_hit
        self.metrics.counter(
            "ingest.query_cache_hits" if hit else "ingest.queries"
        ).inc()
        return handle

    def _visible_plan(
        self,
        state: LifecycleState,
        graph: Graph,
        qfv: np.ndarray,
        meta: DatabaseMetadata,
        store_rows: np.ndarray,
        start: int,
        end: int,
        k: int,
    ) -> PlannedScan:
        """Visible rows of the range, charged at the tombstone density."""
        snap = state.store.snapshot()
        ids, scores = self._scan_visible(
            graph, qfv, store_rows, state, snap, start, end, k
        )
        charged = self._scanned_rows(state, snap, start, end)
        return PlannedScan(ids, scores, charged_rows=charged, interfered=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _scan_visible(
        self,
        graph,
        qfv: np.ndarray,
        store_rows: np.ndarray,
        state: LifecycleState,
        snap: Snapshot,
        start: int,
        end: int,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-K over the rows visible at ``snap`` in the range."""
        visible = state.store.visible_ids(snap)
        visible = visible[(visible >= start) & (visible < end)]
        if len(visible) == 0:
            raise DeepStoreApiError(
                f"no visible features in range [{start}, {end})"
            )
        pairs: List[Tuple[float, int]] = []
        for chunk_start in range(0, len(visible), self.SCAN_CHUNK):
            chunk_ids = visible[chunk_start : chunk_start + self.SCAN_CHUNK]
            scores = self._score_features(graph, qfv, store_rows[chunk_ids])
            top = topk_order(chunk_ids, scores, k)
            pairs.extend(
                (float(scores[i]), int(chunk_ids[i])) for i in top
            )
        best = topk_select(pairs, k)
        ids = np.asarray([fid for _, fid in best], dtype=np.int64)
        scores_out = np.asarray([s for s, _ in best], dtype=np.float32)
        return ids, scores_out

    def _scanned_rows(
        self, state: LifecycleState, snap: Snapshot, start: int, end: int
    ) -> int:
        """Rows the scan physically reads (tombstones included).

        Tombstoned rows cost flash reads until a compaction reclaims
        them; after one, the physically-present fraction shrinks and the
        charged scan shrinks with it.
        """
        span = end - start
        if state.store.n_rows == 0:
            return span
        density = state.store.physical_rows / state.store.n_rows
        return max(1, int(round(span * density)))

    def _check_rows(self, state: LifecycleState, features: np.ndarray) -> np.ndarray:
        features = self._check_features(features)
        if features.shape[1] != state.store.dim:
            raise DeepStoreApiError(
                f"row dim {features.shape[1]} does not match the "
                f"database's dim {state.store.dim}"
            )
        room = state.writepath.free_rows
        if len(features) > room:
            raise IngestError(
                f"logical flash space exhausted: the ingest region has room "
                f"for {room} more rows, not {len(features)}; compact before "
                f"ingesting more"
            )
        return features

    def _account(self, state: LifecycleState, op: WriteOp) -> None:
        state.write_seconds += op.seconds
        self.metrics.counter("ingest.pages_written").inc(op.pages_written)
        self.metrics.counter("ingest.gc_relocations").inc(op.relocations)
        self.metrics.counter("ingest.gc_erases").inc(op.erases)

    def _publish_gauges(self, db_id: int, state: LifecycleState) -> None:
        self.metrics.gauge(f"ingest.db{db_id}.delta_fraction").set(
            state.store.delta_fraction()
        )
        self.metrics.gauge(f"ingest.db{db_id}.tombstones").set(
            float(state.store.n_tombstones)
        )
        self.metrics.gauge(f"ingest.db{db_id}.write_amplification").set(
            state.writepath.write_amplification
        )
