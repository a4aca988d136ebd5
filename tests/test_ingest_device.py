"""Device-level ingest tests: verbs, write path, and differential parity."""

import numpy as np
import pytest

from repro.core.api import DeepStoreApiError, DeepStoreDevice
from repro.ingest import IngestError, IngestWritePath, LifecycleDevice
from repro.workloads import get_app

APP = get_app("textqa")
DIM = APP.feature_floats
N_BASE = 64


def _seeded(device, seed=0, n=N_BASE):
    rng = np.random.default_rng(seed)
    db = device.write_db(rng.normal(0, 1, (n, DIM)).astype(np.float32))
    model = device.load_graph(APP.build_scn(seed=seed + 1))
    return db, model, rng


@pytest.fixture
def device():
    return LifecycleDevice()


class TestWritePath:
    @pytest.fixture
    def path(self, ssd):
        return IngestWritePath(ssd, APP.feature_bytes, blocks=8,
                               pages_per_block=16)

    def test_append_costs_time_and_tracks_rows(self, path):
        op = path.append(range(10))
        assert op.seconds > 0
        assert op.pages_written >= 1
        assert all(path.has_row(i) for i in range(10))

    @staticmethod
    def _churn(path, rounds):
        # full-page batches stay live while single-row appends keep
        # re-programming the open page; GC victims then carry live pages
        # that must be relocated — the benchmark's source of WA
        fid = 0
        for _ in range(rounds):
            path.append(range(fid, fid + path.rows_per_page))
            fid += path.rows_per_page
            for _ in range(6):
                path.append([fid])
                fid += 1

    def test_mixed_churn_amplifies_writes(self, path):
        self._churn(path, 25)
        assert path.write_amplification > 1.0
        assert path.stats.relocations > 0
        assert path.stats.erases > 0

    def test_full_page_batches_do_not_amplify(self, path):
        path.append(range(path.rows_per_page * 3))
        assert path.write_amplification == pytest.approx(1.0)

    def test_delete_trims_empty_pages(self, path):
        path.append(range(path.rows_per_page))
        free_before = path.free_pages
        op = path.delete(range(path.rows_per_page))
        assert op.pages_trimmed == 1
        assert path.free_pages == free_before + 1
        assert not any(path.has_row(i) for i in range(path.rows_per_page))

    def test_rewrite_moves_rows(self, path):
        path.append(range(6))
        op = path.rewrite(range(6))
        assert op.pages_written >= 1
        assert all(path.has_row(i) for i in range(6))

    def test_invalid_ops_rejected(self, path):
        path.append([0])
        with pytest.raises(IngestError):
            path.append([0])  # already on flash
        with pytest.raises(IngestError):
            path.delete([99])  # never written
        with pytest.raises(IngestError):
            path.append([])

    def test_offered_load_scales_with_wa(self, path):
        self._churn(path, 25)
        assert path.offered_load(0.5) > 0.5  # WA > 1 inflates the load
        assert path.offered_load(0.9) <= 0.95  # capped
        with pytest.raises(IngestError):
            path.offered_load(1.5)

    def test_reset_stats_zeroes_counters(self, path):
        path.append(range(10))
        path.reset_stats()
        assert path.stats.host_writes == 0
        assert path.write_amplification == 1.0


class TestDeviceVerbs:
    def test_verbs_require_enable_ingest(self, device):
        db, _, _ = _seeded(device)
        with pytest.raises(DeepStoreApiError):
            device.insert_db(db, np.ones((1, DIM), dtype=np.float32))
        with pytest.raises(DeepStoreApiError):
            device.lifecycle(db)

    def test_insert_extends_the_scannable_database(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        before = device.get_results(device.query(probe, 5, model, db))
        # exact copies of the current winner tie its score, so they must
        # join it in the top-K (canonical tie-break keeps the order stable)
        winner_row = device.lifecycle(db).store.rows(before.feature_ids[:1])
        planted = device.insert_db(db, np.tile(winner_row, (3, 1)))
        after = device.get_results(device.query(probe, 5, model, db))
        assert set(planted.tolist()) <= set(after.feature_ids.tolist())
        assert after.scores[0] == pytest.approx(before.scores[0])

    def test_deleted_rows_vanish_from_results(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        top = device.get_results(device.query(probe, 5, model, db))
        victim = int(top.feature_ids[0])
        device.delete_db_rows(db, [victim])
        after = device.get_results(device.query(probe, 5, model, db))
        assert victim not in after.feature_ids.tolist()

    def test_update_replaces_in_place(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        winner = int(
            device.get_results(device.query(probe, 1, model, db)).feature_ids[0]
        )
        winner_row = device.lifecycle(db).store.rows(np.array([winner]))[0]
        victim = 0 if winner != 0 else 1
        new_id = device.update_db_row(db, victim, winner_row)
        result = device.get_results(device.query(probe, 3, model, db))
        ids = result.feature_ids.tolist()
        assert new_id in ids and victim not in ids

    def test_compaction_reclaims_and_shrinks_scan_cost(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        device.insert_db(
            db, rng.normal(0, 1, (8, DIM)).astype(np.float32)
        )
        device.delete_db_rows(db, list(range(16)))
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        costly = device.get_results(device.query(probe, 5, model, db))
        outcome = device.compact_db(db)
        assert outcome.reclaimed_rows == 16
        assert outcome.rewritten_rows == 8
        assert outcome.seconds > 0
        cheap = device.get_results(device.query(probe, 5, model, db))
        # same answer, cheaper scan: dead pages no longer read
        assert cheap.feature_ids.tolist() == costly.feature_ids.tolist()
        assert cheap.latency.scan_seconds < costly.latency.scan_seconds

    def test_mutation_invalidates_cached_results(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        device.set_qc(threshold=0.10)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        device.get_results(device.query(probe, 5, model, db))
        hit = device.get_results(device.query(probe, 5, model, db))
        assert hit.cache_hit
        device.insert_db(db, rng.normal(0, 1, (2, DIM)).astype(np.float32))
        fresh = device.get_results(device.query(probe, 5, model, db))
        assert not fresh.cache_hit

    def test_background_writes_slow_scans_monotonically(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        device.insert_db(db, rng.normal(0, 1, (2, DIM)).astype(np.float32))
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        seconds = []
        for load in (0.0, 0.3, 0.6):
            device.set_background_write_load(load)
            seconds.append(
                device.get_results(device.query(probe, 5, model, db)).seconds
            )
        device.set_background_write_load(0.0)
        assert seconds[0] < seconds[1] <= seconds[2]
        with pytest.raises(DeepStoreApiError):
            device.set_background_write_load(0.5, policy="bogus")

    def test_metrics_published(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        device.insert_db(db, rng.normal(0, 1, (3, DIM)).astype(np.float32))
        device.delete_db_rows(db, [0])
        device.get_results(
            device.query(rng.normal(0, 1, DIM).astype(np.float32), 5, model, db)
        )
        snap = device.metrics.snapshot()
        assert snap["ingest.inserts"] == 3
        assert snap["ingest.deletes"] == 1
        assert snap["ingest.queries"] == 1
        assert snap["ingest.db%d.tombstones" % db]["value"] == 1.0


class TestInsertFitsOrNothing:
    """A batch the ingest region cannot hold changes nothing; one that
    fills it exactly runs as it always has."""

    #: a 4 x 16-page region: 32 logical pages x 20 TextQA rows = 640
    #: rows, 64 of them the base rows
    ROOM = 576

    def _rig(self, device):
        db, model, rng = _seeded(device)
        device.enable_ingest(db, region_blocks=4, region_pages_per_block=16)
        device.set_qc(threshold=0.10)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        device.get_results(device.query(probe, 5, model, db))
        return db, model, rng, probe

    @staticmethod
    def _state(device, db):
        state = device.lifecycle(db)
        return (
            state.store.n_rows, state.store.epoch, len(device._store(db)),
            device.db_epoch(db), state.writepath.free_rows,
            state.write_seconds, repr(state.writepath.stats),
        )

    def test_exact_fit_is_accepted_unchanged(self, device):
        db, model, rng, probe = self._rig(device)
        rows = rng.normal(0, 1, (self.ROOM, DIM)).astype(np.float32)
        ids = device.insert_db(db, rows)
        state = device.lifecycle(db)
        assert ids.tolist() == list(range(N_BASE, N_BASE + self.ROOM))
        assert state.writepath.free_rows == 0
        # the floats and GC counters of the unchecked write path
        assert state.write_seconds == 0.0011483237499999997
        stats = state.writepath.stats
        assert (stats.host_writes, stats.relocations, stats.erases) == (29, 15, 1)
        result = device.get_results(device.query(probe, 5, model, db))
        assert result.feature_ids.tolist() == [185, 471, 628, 3, 554]
        assert result.seconds == 0.00012998019999999999

    def test_one_row_more_changes_nothing(self, device):
        db, model, rng, probe = self._rig(device)
        before = self._state(device, db)
        rows = rng.normal(0, 1, (self.ROOM + 1, DIM)).astype(np.float32)
        with pytest.raises(IngestError, match="room for 576 more rows, not 577"):
            device.insert_db(db, rows)
        assert self._state(device, db) == before
        assert not device.lifecycle(db).writepath.has_row(N_BASE)
        assert device.get_results(device.query(probe, 5, model, db)).cache_hit
        # what fits still goes in
        device.insert_db(db, rows[: self.ROOM])

    def test_update_in_a_full_region_keeps_the_old_row(self, device):
        db, _, rng, _ = self._rig(device)
        device.insert_db(db, rng.normal(0, 1, (self.ROOM, DIM)).astype(np.float32))
        before = self._state(device, db)
        with pytest.raises(IngestError, match="logical flash space exhausted"):
            device.update_db_row(db, 0, rng.normal(0, 1, DIM).astype(np.float32))
        assert self._state(device, db) == before
        assert device.lifecycle(db).store.is_visible(0)


class TestZeroMutationParity:
    """Ingest-enabled but untouched == static device, bit for bit."""

    @pytest.mark.parametrize("level", ["ssd", "channel", "chip"])
    def test_parity_at_every_level(self, level):
        static = DeepStoreDevice(level=level)
        live = LifecycleDevice(level=level)
        db_s, model_s, _ = _seeded(static, seed=3)
        db_l, model_l, _ = _seeded(live, seed=3)
        live.enable_ingest(db_l, region_blocks=8, region_pages_per_block=16)
        static.set_qc(threshold=0.10)
        live.set_qc(threshold=0.10)
        rng = np.random.default_rng(99)
        probes = rng.normal(0, 1, (4, DIM)).astype(np.float32)
        queries = [probes[0], probes[1], probes[0], probes[2], probes[3]]
        for probe in queries:
            try:
                expected = static.get_results(
                    static.query(probe, 5, model_s, db_s)
                )
            except DeepStoreApiError:
                with pytest.raises(DeepStoreApiError):
                    live.query(probe, 5, model_l, db_l)
                return
            got = live.get_results(live.query(probe, 5, model_l, db_l))
            assert got.feature_ids.tolist() == expected.feature_ids.tolist()
            np.testing.assert_array_equal(got.scores, expected.scores)
            assert got.latency.total_seconds == expected.latency.total_seconds
            assert got.transfer_seconds == expected.transfer_seconds
            assert got.cache_hit == expected.cache_hit

    def test_parity_breaks_only_after_first_mutation(self):
        live = LifecycleDevice()
        db, model, rng = _seeded(live, seed=3)
        live.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        static_result = live.get_results(live.query(probe, 5, model, db))
        live.insert_db(db, rng.normal(0, 1, (1, DIM)).astype(np.float32))
        mutable_result = live.get_results(live.query(probe, 5, model, db))
        # the snapshot path now runs; answer is still the exact top-K
        assert (
            mutable_result.feature_ids.tolist()[:5]
            == static_result.feature_ids.tolist()
        ) or mutable_result.scores[0] >= static_result.scores[0]
