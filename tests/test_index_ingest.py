"""Index × ingest: staleness drift, compaction recovery, region audit.

The index is a snapshot; live ingest makes it stale.  These tests pin
the staleness semantics end to end on a trained SCN (the lifecycle
loop's staleness and compaction tests in ``test_ingest_compaction.py``
run the same device on a random one):

* recall@10 **degrades** as the unindexed delta grows when the probe
  ignores it, and ``include_delta=True`` buys it back at delta-scan
  cost;
* compaction triggers a re-index, after which recall is back within 1%
  of a fresh build;
* the layout region is sized by the ``region_blocks_for`` audit, so a
  scaled build grows its region instead of exhausting logical flash
  space (the ``--bench-scale 10`` regression);
* a build or re-index over fewer visible rows than ``n_lists`` is
  rejected with both counts, and ``compact_db`` rejects it before it
  compacts, so the store and the index stay as they were.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import DeepStoreApiError
from repro.index import IndexedDevice, region_blocks_for
from repro.index.device import query_exhaustive
from repro.index.scorecard import GATE_CONFIG, make_index_workload
from repro.ingest import IngestError, IngestWritePath
from repro.ssd import Ssd, SsdConfig
from repro.workloads import get_app, train_scn

APP = get_app("textqa")
DIM = APP.feature_floats
GRAPH = train_scn(APP, seed=0)
K = 10
NPROBE = 4

CFG = replace(
    GATE_CONFIG,
    n_features=2048,
    n_intents=8,
    n_lists=8,
    n_queries=3,
    planted=12,
    iterations=4,
)


def _device_with_index():
    features, queries = make_index_workload(CFG)
    device = IndexedDevice(level="channel")
    db = device.write_db(features)
    model = device.load_graph(GRAPH)
    device.enable_ingest(db, region_blocks=64, region_pages_per_block=64)
    device.build_index(
        db, model, CFG.n_lists, iterations=CFG.iterations, seed=CFG.seed
    )
    return device, db, model, queries


def _recall(device, db, model, queries, **kw):
    """Mean recall@K of the routed probe against the exhaustive scan."""
    values = []
    for probe in queries:
        exact = query_exhaustive(device, probe, K, model, db)
        got = device.get_results(
            device.query(probe, K, model, db, nprobe=NPROBE, **kw)
        )
        hit = set(got.feature_ids.tolist()) & set(exact.feature_ids.tolist())
        values.append(len(hit) / K)
    return sum(values) / len(values)


def _insert_near(device, db, model, queries, rng, per_query=8):
    """Insert near-copies of each query's current top rows.

    The SCN is non-metric (the query itself is not its own best match),
    so the reliable way to shift the exact top-K is to clone the rows
    that already win it: about half the perturbed clones outscore their
    parent, pushing indexed rows out of the exact top-K.
    """
    store = device._store(db)
    for probe in queries:
        exact = query_exhaustive(device, probe, K, model, db)
        parents = store[exact.feature_ids[: per_query // 2]]
        clones = np.repeat(parents, 2, axis=0)
        clones = clones + rng.normal(0, 0.005, clones.shape)
        device.insert_db(db, clones.astype(np.float32))


class TestStalenessDrift:
    def test_recall_degrades_as_the_delta_grows(self):
        device, db, model, queries = _device_with_index()
        rng = np.random.default_rng(23)
        fresh = _recall(device, db, model, queries, include_delta=False)
        assert fresh >= 0.95  # the build starts healthy

        drift = [fresh]
        for _ in range(3):
            _insert_near(device, db, model, queries, rng)
            drift.append(
                _recall(device, db, model, queries, include_delta=False)
            )
        # monotone staleness: each wave of unindexed rows can only hurt
        assert all(a >= b for a, b in zip(drift, drift[1:]))
        assert drift[-1] <= fresh - 0.5  # the delta dominates the top-K
        assert len(device.lifecycle(db).store.delta_ids()) == 3 * len(queries) * 8

    def test_include_delta_buys_recall_back(self):
        device, db, model, queries = _device_with_index()
        rng = np.random.default_rng(23)
        _insert_near(device, db, model, queries, rng)
        _insert_near(device, db, model, queries, rng)

        stale = _recall(device, db, model, queries, include_delta=False)
        bought = _recall(device, db, model, queries, include_delta=True)
        assert bought >= 0.95
        assert bought > stale

        # the buyback is priced: the delta rows join the scanned cost
        probe = queries[0]
        with_delta = device.get_results(
            device.query(probe, K, model, db, nprobe=NPROBE,
                         include_delta=True)
        )
        without = device.get_results(
            device.query(probe, K, model, db, nprobe=NPROBE,
                         include_delta=False)
        )
        delta = device.lifecycle(db).store.delta_ids()
        assert with_delta.probed_rows == without.probed_rows + len(delta)


class TestCompactionReindex:
    def test_recall_recovers_within_one_percent_of_fresh(self):
        device, db, model, queries = _device_with_index()
        rng = np.random.default_rng(23)
        fresh = _recall(device, db, model, queries, include_delta=False)

        for _ in range(3):
            _insert_near(device, db, model, queries, rng)
        device.delete_db_rows(db, list(range(16)))
        stale = _recall(device, db, model, queries, include_delta=False)
        assert stale < fresh

        outcome = device.compact_db(db)
        assert len(device.lifecycle(db).store.delta_ids()) == 0
        assert device.metrics.snapshot()["index.reindexes"] == 1
        # the compaction bill includes the rebuild, not just the GC pass
        assert outcome.seconds > device.index_for(db).report.total_seconds

        recovered = _recall(device, db, model, queries, include_delta=False)
        assert recovered >= fresh - 0.01

    def test_rebuild_covers_the_folded_delta(self):
        device, db, model, queries = _device_with_index()
        rng = np.random.default_rng(23)
        before = device.index_for(db)
        _insert_near(device, db, model, queries, rng)
        device.compact_db(db)
        after = device.index_for(db)
        assert after is not before
        assert after.report.rows == before.report.rows + len(queries) * 8
        assert after.boundary > before.boundary


class TestRegionAudit:
    """Satellite regression: index builds at --bench-scale 10 must not
    exhaust the ingest region's logical space."""

    def test_audited_region_holds_the_scaled_build(self):
        page_bytes = SsdConfig().geometry.page_bytes
        rows = GATE_CONFIG.n_features * 10
        blocks = region_blocks_for(rows, APP.feature_bytes, page_bytes)
        rows_per_page = max(1, page_bytes // APP.feature_bytes)
        pages_needed = math.ceil(rows / rows_per_page)
        capacity = blocks * 64
        logical = min(int(capacity * (1 - 0.07)), capacity - 2 * 64)
        assert logical >= 2.0 * pages_needed
        # the audit is monotone: more rows never shrink the region
        assert region_blocks_for(
            rows * 2, APP.feature_bytes, page_bytes
        ) >= blocks

    def test_fixed_region_dies_where_the_audit_survives(self, ssd):
        rows = 2000  # >> what 4 blocks of 16 pages can hold
        fixed = IngestWritePath(ssd, APP.feature_bytes, blocks=4,
                                pages_per_block=16)
        with pytest.raises(IngestError, match="logical flash space exhausted"):
            fixed.append(range(rows))

        blocks = region_blocks_for(
            rows, APP.feature_bytes, ssd.config.geometry.page_bytes,
            pages_per_block=16, min_blocks=4,
        )
        audited = IngestWritePath(Ssd(), APP.feature_bytes, blocks=blocks,
                                  pages_per_block=16)
        audited.append(range(rows))
        assert all(audited.has_row(i) for i in range(rows))

    def test_build_report_pins_the_audited_region(self):
        device, db, _, _ = _device_with_index()
        report = device.index_for(db).report
        page_bytes = device.ssd.config.geometry.page_bytes
        assert report.region_blocks == region_blocks_for(
            report.rows, APP.feature_bytes, page_bytes
        )


class TestReindexNeedsRows:
    LISTS = 8

    def _thinned(self):
        """An 8-list index over 32 rows, 27 of them then deleted."""
        rng = np.random.default_rng(5)
        device = IndexedDevice()
        db = device.write_db(rng.normal(0, 1, (32, DIM)).astype(np.float32))
        model = device.load_graph(GRAPH)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        device.build_index(db, model, self.LISTS, iterations=2)
        device.delete_db_rows(db, list(range(27)))
        return device, db, model

    def test_build_and_reindex_name_both_counts(self):
        device, db, model = self._thinned()
        with pytest.raises(DeepStoreApiError, match=r"n_lists=8 .* has 5$"):
            device.build_index(db, model, self.LISTS)
        with pytest.raises(DeepStoreApiError, match=r"n_lists=8 .* has 5$"):
            device.reindex(db)
        # a static database counts all of its rows
        static = IndexedDevice()
        sdb = static.write_db(np.ones((4, DIM), np.float32))
        smodel = static.load_graph(GRAPH)
        with pytest.raises(DeepStoreApiError, match=r"n_lists=5 .* has 4$"):
            static.build_index(sdb, smodel, 5)

    def test_compact_db_rejects_before_compacting(self):
        device, db, _ = self._thinned()
        state = device.lifecycle(db)
        index = device.index_for(db)

        def observed():
            return (
                state.store.n_tombstones,
                state.store.delta_fraction(),
                state.writepath.free_pages,
                state.compactions,
                state.write_seconds,
                device.metrics.snapshot(),
            )

        before = observed()
        with pytest.raises(DeepStoreApiError, match=r"n_lists=8 .* has 5$"):
            device.compact_db(db)
        assert observed() == before
        assert device.index_for(db) is index
