"""``IndexedDevice``: a drop-in query backend with IVF routing.

Subclasses :class:`repro.ingest.device.LifecycleDevice`, so one device
speaks every layer: static queries, live mutation, and now routed
probes.  The contract that keeps the base reproduction honest:

* :meth:`IndexedDevice.query` only chooses the rows that the shared
  :meth:`~repro.core.api.DeepStoreDevice._run_query` scores and prices:
  the probed lists (± delta) once an index is built, the inherited plan
  with no index — byte-identical results, latencies, and cache
  behaviour; the index layer costs nothing until it is built.
* At ``nprobe == n_lists`` the probe degenerates to the exhaustive
  scan: routing is skipped (0.0 s), the probed ids are exactly
  ``arange(db_start, db_end)``, and the functional scan runs the same
  chunked canonical top-K as
  :meth:`~repro.core.api.DeepStoreDevice._range_plan` — so ids, scores,
  *and* seconds are bit-identical
  (the differential oracle pins this down per accelerator level).
* The index covers exactly the store's clustered layout: the visible
  rows below :attr:`~repro.ingest.store.MutableFeatureStore.clustered_rows`.
  Rows join it only at compaction, so a build or re-index never folds
  in an uncompacted delta.
* Mutations degrade recall honestly: rows inserted after the last
  compaction are the **unindexed delta**; ``include_delta=True``
  (default) scans them alongside the probed lists (buying recall back
  at delta-scan cost); tombstoned rows stay in the lists — and keep
  costing flash reads — until :meth:`compact_db` reclaims them and
  triggers a re-index.  A
  probe whose lists hold only dead rows returns an empty top-K, still
  charged for the slots it read.
* :meth:`reindex` is the one re-index path: :meth:`compact_db` calls
  it, and so does the lifecycle loop's background compaction job.
  :func:`query_exhaustive` is the one exhaustive query helper.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.api import DeepStoreApiError, PlannedScan, QueryHandle, QueryResult
from repro.index.build import IndexBuildConfig, IvfIndex, build_ivf_index
from repro.index.router import CentroidRouter, is_nprobe
from repro.ingest.device import DeviceCompaction, LifecycleDevice
from repro.ingest.store import Snapshot
from repro.nn import Graph
from repro.ssd.ftl import DatabaseMetadata


class IndexedDevice(LifecycleDevice):
    """``LifecycleDevice`` + IVF probe routing, one subclass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._indexes: Dict[int, IvfIndex] = {}
        self._indexed_models: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # build / inspect
    # ------------------------------------------------------------------
    def build_index(
        self,
        db_id: int,
        model_id: int,
        n_lists: int,
        iterations: int = 8,
        seed: int = 0,
        config: Optional[IndexBuildConfig] = None,
    ) -> IvfIndex:
        """Train + lay out an IVF index over the database's clustered rows."""
        graph = self._models.get(model_id)
        if graph is None:
            raise DeepStoreApiError(f"unknown model id {model_id}")
        meta = self.ssd.ftl.get(db_id)
        cfg = config or IndexBuildConfig(
            n_lists=n_lists, iterations=iterations, seed=seed
        )
        ids, boundary = self._indexable_rows(db_id, cfg.n_lists)
        index = build_ivf_index(
            self.ssd,
            self._system("ssd"),
            graph,
            self._store(db_id)[ids],
            ids,
            meta,
            cfg,
            boundary=boundary,
        )
        self._indexes[db_id] = index
        self._indexed_models[db_id] = model_id
        state = self._lifecycles.get(db_id)
        if state is not None:
            state.write_seconds += index.report.total_seconds
        self.metrics.counter("index.builds").inc()
        return index

    def _indexable_rows(self, db_id: int, n_lists: int) -> Tuple[np.ndarray, int]:
        """The ids an index over ``db_id`` covers, and its boundary.

        Under ingest that is the clustered layout: the visible rows below
        the store's clustered boundary.  Rejects a build whose
        ``n_lists`` exceeds the rows.
        """
        state = self._lifecycles.get(db_id)
        if state is not None:
            boundary = state.store.clustered_rows
            ids = state.store.visible_ids()
            ids = ids[ids < boundary]
        else:
            boundary = len(self._store(db_id))
            ids = np.arange(boundary, dtype=np.int64)
        _check_lists(n_lists, len(ids), db_id)
        return ids, boundary

    def index_for(self, db_id: int) -> IvfIndex:
        """The database's built index, or raise if none exists."""
        index = self._indexes.get(db_id)
        if index is None:
            raise DeepStoreApiError(
                f"database {db_id} has no index (call build_index)"
            )
        return index

    def indexed(self, db_id: int) -> bool:
        """Whether the database has a built index."""
        return db_id in self._indexes

    # ------------------------------------------------------------------
    # query (probed-lists plan)
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
        nprobe: Optional[int] = None,
        include_delta: bool = True,
    ) -> QueryHandle:
        """``query`` through the database's IVF index, when one is built.

        ``nprobe`` lists (default ``n_lists // 4``, at least 1) are
        probed; ``include_delta`` also scans the rows outside the
        clustered layout.  Without an index this is the inherited query,
        byte for byte.
        """
        if db_id not in self._indexes:
            return super().query(
                qfv, k, model_id, db_id, db_start, db_end, accel_level
            )
        index = self._indexes[db_id]
        if nprobe is None:
            nprobe = max(1, index.n_lists // 4)
        elif not is_nprobe(nprobe):
            raise DeepStoreApiError(
                f"nprobe must be a positive integer, got {nprobe!r}"
            )
        handle = self._run_query(
            functools.partial(self._probe_plan, index, int(nprobe), include_delta),
            qfv, k, model_id, db_id, db_start, db_end, accel_level,
        )
        if not self.get_results(handle).cache_hit:
            self.metrics.counter("index.queries").inc()
        return handle

    def _probe_plan(
        self,
        index: IvfIndex,
        nprobe: int,
        include_delta: bool,
        graph: Graph,
        qfv: np.ndarray,
        meta: DatabaseMetadata,
        store: np.ndarray,
        start: int,
        end: int,
        k: int,
    ) -> PlannedScan:
        """Route at SSD level, then scan the probed lists (+ delta)."""
        router = CentroidRouter(
            index.centroids, self._system("ssd"), graph,
            feature_bytes=meta.feature_bytes, page_bytes=meta.page_bytes,
        )
        decision = router.route(qfv, nprobe, self._score_features)
        probed = index.lists.probed_ids(decision.list_ids)
        probed = probed[(probed >= start) & (probed < end)]

        state = self._lifecycles.get(meta.db_id)
        mutated = state is not None and state.store.epoch > 0
        # probed rows cost flash reads whether alive or tombstoned —
        # dead rows keep their list slots until compaction re-indexes
        scanned_cost = len(probed)
        if state is not None and mutated:
            visible = state.store.visible_ids(state.store.snapshot())
            probed = probed[np.isin(probed, visible)]
            if include_delta:
                delta = visible[visible >= index.boundary]
                delta = delta[(delta >= start) & (delta < end)]
                probed = np.concatenate([probed, delta])
                scanned_cost += len(delta)
        if scanned_cost == 0:
            raise DeepStoreApiError(
                f"probe returned no candidates in range [{start}, {end})"
            )
        # slots read but every row dead: an empty top-K, still charged
        ids, scores = self._scan_ids(graph, qfv, store, probed, k)
        return PlannedScan(
            ids,
            scores,
            charged_rows=scanned_cost,
            interfered=mutated,
            routing_seconds=decision.routing_seconds,
            probed_rows=scanned_cost,
            nprobe=decision.nprobe,
        )

    # ------------------------------------------------------------------
    # compaction-triggered re-indexing
    # ------------------------------------------------------------------
    def check_compaction(self, db_id: int, snapshot: Snapshot) -> None:
        """Reject a compaction whose re-index could not fill ``n_lists``.

        The re-index covers the rows of ``snapshot`` still visible now
        (a delete can land while a background job runs).  A refusal
        leaves store and index untouched.
        """
        if db_id in self._indexes:
            visible = self.lifecycle(db_id).store.visible_ids()
            rows = int(np.count_nonzero(visible < snapshot.n_rows))
            _check_lists(self._indexes[db_id].n_lists, rows, db_id)

    def compact_db(self, db_id: int) -> DeviceCompaction:
        """Compact, then rebuild the index over the surviving rows."""
        outcome = super().compact_db(db_id)
        rebuilt = self.reindex(db_id)
        if rebuilt is None:
            return outcome
        return DeviceCompaction(
            seconds=outcome.seconds + rebuilt.report.total_seconds,
            reclaimed_rows=outcome.reclaimed_rows,
            rewritten_rows=outcome.rewritten_rows,
            write_amplification=outcome.write_amplification,
        )

    def reindex(self, db_id: int) -> Optional[IvfIndex]:
        """Rebuild the database's index over its clustered rows.

        Keeps the old build's config; a no-op (``None``) without an
        index.
        """
        if db_id not in self._indexes:
            return None
        old = self._indexes[db_id]
        rebuilt = self.build_index(
            db_id,
            self._indexed_models[db_id],
            old.config.n_lists,
            config=old.config,
        )
        self.metrics.counter("index.reindexes").inc()
        return rebuilt


def _check_lists(n_lists: int, rows: int, db_id: int) -> None:
    """Reject an index of more lists than the rows it would cover."""
    if rows < n_lists:
        raise DeepStoreApiError(
            f"n_lists={n_lists} needs at least as many visible rows; "
            f"database {db_id} has {rows}"
        )


def query_exhaustive(
    device: IndexedDevice,
    qfv: np.ndarray,
    k: int,
    model_id: int,
    db_id: int,
    level: Optional[str] = None,
) -> QueryResult:
    """One query down the inherited exhaustive path, past the index."""
    handle = LifecycleDevice.query(device, qfv, k, model_id, db_id, accel_level=level)
    return device.get_results(handle)
