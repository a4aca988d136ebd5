"""Staleness on the indexed device, and preemptible background compaction.

The probed-search tests run :meth:`IndexedDevice.query` over a mutated
store; the compaction tests run :class:`CompactionJob` on the DES
timeline and re-index through its ``on_done`` callback, as
:func:`run_lifecycle` does.
"""

import numpy as np
import pytest

from repro.core.api import DeepStoreApiError
from repro.index import CentroidRouter, IndexedDevice
from repro.ingest import (
    CompactionJob,
    CompactionPolicy,
    IngestError,
    LifecycleConfig,
    LifecycleDevice,
    run_lifecycle,
    oracle_topk,
)
from repro.sim import Simulator
from repro.workloads import get_app

APP = get_app("textqa")
DIM = APP.feature_floats
N_LISTS = 8


@pytest.fixture
def rig(rng):
    """An indexed device with one ingest-enabled database."""
    device = IndexedDevice()
    db = device.write_db(rng.normal(0, 1, (256, DIM)).astype(np.float32))
    model = device.load_graph(APP.build_scn(seed=1))
    device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
    device.build_index(db, model, n_lists=N_LISTS, seed=0)
    return device, db, model


def _exact(device, db, model, probe, k):
    """Ground truth: the canonical scan over every visible row."""
    visible = device.lifecycle(db).store.visible_ids()
    return device._scan_ids(
        device._models[model], probe, device._store(db), visible, k
    )[0]


def _probe(device, db, model, probe, k, nprobe, include_delta=True):
    return device.get_results(
        device.query(probe, k, model, db, nprobe=nprobe,
                     include_delta=include_delta)
    )


def _recall(result, exact):
    got = set(result.feature_ids.tolist())
    return len(got & set(exact.tolist())) / len(exact)


def _plant_winners(device, db, model, probe, n):
    """Insert near-copies of the current exact winners (they belong in
    the new exact top-K but the stale layout cannot reach them)."""
    winners = _exact(device, db, model, probe, n)
    rows = device.lifecycle(db).store.rows(winners)
    return device.insert_db(db, rows + np.float32(1e-3))


class TestProbedSearch:
    def test_fresh_layout_has_high_recall(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        result = _probe(device, db, model, probe, 10, nprobe=6)
        assert _recall(result, _exact(device, db, model, probe, 10)) >= 0.5
        assert result.probed_rows < 256
        assert result.seconds > 0

    def test_recall_drifts_down_as_delta_grows(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        exact0 = _exact(device, db, model, probe, 10)
        recall0 = _recall(
            _probe(device, db, model, probe, 10, 6, include_delta=False), exact0
        )
        _plant_winners(device, db, model, probe, 10)
        exact1 = _exact(device, db, model, probe, 10)
        stale = _recall(
            _probe(device, db, model, probe, 10, 6, include_delta=False), exact1
        )
        # the planted winners sit in the delta; stale probing misses them
        assert stale < recall0
        assert len(device.lifecycle(db).store.delta_ids()) == 10

    def test_scanning_the_delta_buys_recall_back(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        _plant_winners(device, db, model, probe, 10)
        exact = _exact(device, db, model, probe, 10)
        stale = _probe(device, db, model, probe, 10, 6, include_delta=False)
        fresh = _probe(device, db, model, probe, 10, 6, include_delta=True)
        assert _recall(fresh, exact) > _recall(stale, exact)
        assert fresh.probed_rows > stale.probed_rows
        # the latency model quantizes at page granularity, so a small
        # delta may not move the clock — it must never make it cheaper
        assert fresh.seconds >= stale.seconds

    def test_tombstones_cost_reads_but_never_rank(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        top = _exact(device, db, model, probe, 5)
        device.delete_db_rows(db, [int(top[0])])
        result = _probe(device, db, model, probe, 10, nprobe=N_LISTS)
        assert int(top[0]) not in result.feature_ids.tolist()
        # the dead row's list slot is still probed until compaction
        visible = len(device.lifecycle(db).store.visible_ids())
        assert result.probed_rows == visible + 1

    def test_compaction_reindex_restores_recall(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        _plant_winners(device, db, model, probe, 10)
        before = device.index_for(db)
        device.compact_db(db)
        assert device.index_for(db) is not before
        exact = _exact(device, db, model, probe, 10)
        result = _probe(device, db, model, probe, 10, 6, include_delta=False)
        assert _recall(result, exact) >= 0.5
        assert len(device.lifecycle(db).store.delta_ids()) == 0
        assert device.metrics.snapshot()["index.reindexes"] == 1

    def test_reindex_leaves_an_uncompacted_delta_out(self, rig, rng):
        # rows join the clustered layout only at compaction, so a direct
        # re-index rebuilds over the clustered rows and the delta stays
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        planted = _plant_winners(device, db, model, probe, 10)
        store = device.lifecycle(db).store
        index = device.reindex(db)
        assert index.boundary == store.clustered_rows == 256
        assert np.array_equal(index.lists.probed_ids(range(N_LISTS)), store.clustered_ids)
        assert np.array_equal(store.delta_ids(), planted)

    def test_reindex_without_an_index_is_a_noop(self, rig):
        device, db, _ = rig
        assert device.reindex(db + 99) is None
        assert "index.reindexes" not in device.metrics.snapshot()

    def test_bad_construction_rejected(self, rig):
        device, db, model = rig
        with pytest.raises(ValueError, match="n_lists"):
            device.build_index(db, model, n_lists=2.5)
        with pytest.raises(DeepStoreApiError, match="model"):
            device.build_index(db, model + 99, n_lists=N_LISTS)


class TestEmptyProbe:
    """A probe whose lists hold only dead rows answers, and is charged."""

    def _kill_probed_lists(self, device, db, model, probe, nprobe):
        index = device.index_for(db)
        router = CentroidRouter(
            index.centroids, device._system("ssd"), device._models[model],
            feature_bytes=DIM * 4,
        )
        decision = router.route(probe, nprobe, device._score_features)
        probed = index.lists.probed_ids(decision.list_ids)
        device.delete_db_rows(db, probed.tolist())
        return probed

    def test_dead_lists_give_an_empty_charged_top_k(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        probed = self._kill_probed_lists(device, db, model, probe, 2)
        result = _probe(device, db, model, probe, 10, 2, include_delta=False)
        assert len(result.feature_ids) == len(result.scores) == 0
        assert result.probed_rows == len(probed)
        assert result.seconds > 0
        # the delta is empty too, so scanning it changes nothing
        again = _probe(device, db, model, probe, 10, 2, include_delta=True)
        assert len(again.feature_ids) == 0

    def test_a_probe_that_reads_nothing_still_raises(self, rig, rng):
        device, db, model = rig
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        device.insert_db(db, rng.normal(0, 1, (4, DIM)).astype(np.float32))
        # the inserted rows are all delta: no list slot lies in range
        with pytest.raises(DeepStoreApiError, match="no candidates"):
            device.query(probe, 10, model, db, db_start=256, nprobe=2,
                         include_delta=False)

    def test_empty_result_does_not_break_a_later_cache_hit(self, rig, rng):
        device, db, model = rig
        device.set_qc(threshold=0.5)
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        self._kill_probed_lists(device, db, model, probe, 2)
        empty = _probe(device, db, model, probe, 10, 2, include_delta=False)
        assert len(empty.feature_ids) == 0
        again = _probe(device, db, model, probe, 10, 2, include_delta=False)
        assert len(again.feature_ids) == 0
        # a non-empty answer is cached and a repeat hits it
        full = _probe(device, db, model, probe, 10, N_LISTS)
        hit = _probe(device, db, model, probe, 10, N_LISTS)
        assert hit.cache_hit
        assert hit.feature_ids.tolist() == full.feature_ids.tolist()


def _mutate(device, db, model, rng, victims=(7, 40), updated=9):
    """Plant winners, insert noise, delete clustered rows, update one."""
    probe = rng.normal(0, 1, DIM).astype(np.float32)
    _plant_winners(device, db, model, probe, 6)
    device.insert_db(db, rng.normal(0, 1, (12, DIM)).astype(np.float32))
    winners = _exact(device, db, model, probe, 3)
    device.delete_db_rows(db, [int(winners[0]), *victims])
    device.update_db_row(db, updated, rng.normal(0, 1, DIM).astype(np.float32))
    return probe


class TestProbedSearchDifferential:
    """``IndexedDevice.query`` equals an in-test reference.

    The reference takes the router's probed lists, keeps the visible
    ids (plus the store's delta when asked), scores them with one plain
    ``graph.forward`` and ranks them with :func:`oracle_topk`.
    """

    def _reference(self, device, db, model, probe, k, nprobe, include_delta):
        store = device.lifecycle(db).store
        index = device.index_for(db)
        graph = device._models[model]
        visible = set(store.visible_ids().tolist())
        router = CentroidRouter(
            index.centroids, device._system("ssd"), graph,
            feature_bytes=DIM * 4,
        )
        decision = router.route(probe, nprobe, device._score_features)
        candidates = [
            fid for fid in index.lists.probed_ids(decision.list_ids).tolist()
            if fid in visible
        ]
        if include_delta:
            candidates += store.delta_ids().tolist()
        q_id, d_id = graph.input_ids
        rows = store.rows(candidates)
        queries = np.repeat(probe.reshape(1, -1), len(candidates), axis=0)
        out = graph.forward({
            q_id: queries.reshape((len(candidates), *graph.shape_of(q_id))),
            d_id: rows.reshape((len(candidates), *graph.shape_of(d_id))),
        }).reshape(-1)
        scores = np.full(store.n_rows, np.nan, dtype=np.float32)
        scores[candidates] = out
        return oracle_topk(store.features(), candidates, scores, k)

    @pytest.mark.parametrize("nprobe", [1, 3, 8])
    @pytest.mark.parametrize("include_delta", [False, True])
    def test_query_equals_reference(self, rig, rng, nprobe, include_delta):
        device, db, model = rig
        probe = _mutate(device, db, model, rng)
        result = _probe(device, db, model, probe, 10, nprobe, include_delta)
        expected = self._reference(
            device, db, model, probe, 10, nprobe, include_delta
        )
        assert result.feature_ids.tolist() == [fid for _, fid in expected]
        assert result.scores.tolist() == [score for score, _ in expected]

    def test_full_probe_with_delta_is_exact(self, rig, rng):
        device, db, model = rig
        probe = _mutate(device, db, model, rng)
        full = _probe(device, db, model, probe, 10, N_LISTS)
        np.testing.assert_array_equal(
            full.feature_ids, _exact(device, db, model, probe, 10)
        )
        # tombstoned clustered rows still cost reads: 3 deletes + 1 update
        visible = len(device.lifecycle(db).store.visible_ids())
        assert full.probed_rows == visible + 4


class TestCompactionPolicy:
    def test_validation(self):
        with pytest.raises(IngestError):
            CompactionPolicy(delta_threshold=0.0)
        with pytest.raises(IngestError):
            CompactionPolicy(chunk_rows=0)
        with pytest.raises(IngestError):
            CompactionPolicy(min_gap_s=-1.0)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(IngestError, match="min_gap_s"):
            CompactionPolicy(min_gap_s=gap)

    @pytest.mark.parametrize("rows", [2.5, 2.0, True])
    def test_non_integer_chunk_rows_rejected(self, rows):
        with pytest.raises(IngestError, match="chunk_rows"):
            CompactionPolicy(chunk_rows=rows)

    def test_nan_threshold_rejected(self):
        with pytest.raises(IngestError, match="delta_threshold"):
            CompactionPolicy(delta_threshold=float("nan"))

    def test_due_follows_the_delta_threshold(self, rig, rng):
        device, db, _ = rig
        job = CompactionJob(
            device, db,
            policy=CompactionPolicy(delta_threshold=0.1),
        )
        assert not job.due()
        device.insert_db(
            db, rng.normal(0, 1, (40, DIM)).astype(np.float32)
        )
        assert job.due()


class TestCompactionJob:
    def test_chunked_run_absorbs_the_delta(self, rig, rng):
        device, db, _ = rig
        inserted = device.insert_db(
            db, rng.normal(0, 1, (50, DIM)).astype(np.float32)
        )
        device.delete_db_rows(db, [0, 1, 2])
        sim = Simulator()
        seen = []
        before = device.index_for(db)

        def done(report):
            seen.append(report)
            device.reindex(db)

        job = CompactionJob(
            device, db,
            policy=CompactionPolicy(chunk_rows=16),
        )
        job.start(sim, on_done=done)
        sim.run()
        report = job.report
        assert report is not None and seen == [report]
        assert report.rows_rewritten == len(inserted)
        assert report.chunks == 4  # ceil(50 / 16)
        assert report.reclaimed_rows == 3
        assert report.delta_before > 0 and report.delta_after == 0.0
        assert report.write_seconds > 0
        assert report.duration_s >= report.write_seconds * 0.5
        assert not job.active
        # the callback re-indexed: a new index over the surviving rows
        after = device.index_for(db)
        assert after is not before
        assert after.report.rows == 256 - 3 + len(inserted)
        assert device.metrics.snapshot()["index.reindexes"] == 1

    def test_mutations_after_snapshot_land_in_next_delta(self, rig, rng):
        device, db, _ = rig
        device.insert_db(db, rng.normal(0, 1, (20, DIM)).astype(np.float32))
        sim = Simulator()
        job = CompactionJob(device, db)
        job.start(sim)
        late = device.insert_db(
            db, rng.normal(0, 1, (5, DIM)).astype(np.float32)
        )
        sim.run()
        store = device.lifecycle(db).store
        assert set(store.delta_ids().tolist()) == set(int(i) for i in late)

    def test_queries_preempt_pending_chunks(self, rig, rng):
        device, db, model = rig
        device.insert_db(db, rng.normal(0, 1, (48, DIM)).astype(np.float32))
        sim = Simulator()
        job = CompactionJob(
            device, db,
            policy=CompactionPolicy(chunk_rows=8),
        )
        job.start(sim)
        probe = rng.normal(0, 1, DIM).astype(np.float32)

        def fire():
            seconds = device.get_results(
                device.query(probe, 5, model, db)
            ).seconds
            assert job.preempt(sim.now + seconds)

        sim.schedule(1e-5, fire, label="fg-query")
        sim.run()
        report = job.report
        assert report is not None
        assert report.preemptions == 1
        assert report.rows_rewritten == 48

    def test_preempt_is_a_noop_when_idle(self, rig):
        device, db, _ = rig
        job = CompactionJob(device, db)
        assert not job.preempt(1.0)

    def test_double_start_rejected(self, rig, rng):
        device, db, _ = rig
        device.insert_db(db, rng.normal(0, 1, (8, DIM)).astype(np.float32))
        sim = Simulator()
        job = CompactionJob(device, db)
        job.start(sim)
        with pytest.raises(IngestError):
            job.start(sim)
        sim.run()


class TestCompactionRows:
    """The job and ``compact_db`` move the same rows at the same snapshot."""

    def _reference(self, state, snap):
        held = state.writepath.has_row
        dead = [
            fid for fid in range(snap.n_rows)
            if not state.store.is_visible(fid, snap) and held(fid)
        ]
        delta = [int(f) for f in state.store.delta_ids(snap) if held(int(f))]
        return dead, delta

    def test_matches_the_per_row_rule(self, rig, rng):
        device, db, model = rig
        _mutate(device, db, model, rng)
        device.compact_db(db)
        _mutate(device, db, model, rng, victims=(8, 41), updated=12)
        state = device.lifecycle(db)
        snap = state.store.snapshot()
        dead, delta = state.dead_rows(snap), state.delta_rows(snap)
        assert (dead, delta) == self._reference(state, snap)
        assert dead and delta and dead == sorted(dead)

    def test_job_and_device_trim_and_rewrite_alike(self, rig, rng, monkeypatch):
        device, db, model = rig
        twin = LifecycleDevice()
        twin_db = twin.write_db(device.read_db(db))
        twin.load_graph(APP.build_scn(seed=1))
        twin.enable_ingest(twin_db, region_blocks=8, region_pages_per_block=16)
        rows = rng.normal(0, 1, (40, DIM)).astype(np.float32)
        calls = {}
        for dev, name in ((device, "job"), (twin, "device")):
            dev.insert_db(db, rows)
            dev.delete_db_rows(db, [3, 60, 257, 11])
            path = dev.lifecycle(db).writepath
            log = calls.setdefault(name, [])
            for verb in ("delete", "rewrite"):
                original = getattr(path, verb)

                def record(ids, verb=verb, original=original, log=log):
                    log.append((verb, list(ids)))
                    return original(ids)

                monkeypatch.setattr(path, verb, record)
        job = CompactionJob(device, db, policy=CompactionPolicy(chunk_rows=16))
        sim = Simulator()
        job.start(sim)
        sim.run()
        twin.compact_db(twin_db)

        def flat(log, verb):
            return [fid for v, ids in log if v == verb for fid in ids]

        # the job rewrites before it trims and compact_db the other way
        # round (a rewrite also deletes its rows' old pages), so compare
        # the rows each verb saw, not the call order
        for verb in ("delete", "rewrite"):
            assert sorted(flat(calls["job"], verb)) == sorted(
                flat(calls["device"], verb)
            )
        delta = [fid for fid in range(256, 296) if fid != 257]
        assert flat(calls["job"], "rewrite") == delta
        assert sorted(flat(calls["job"], "delete")) == sorted(
            [3, 11, 60, 257] + delta
        )


class TestLifecycleConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("probe_queries", 0),
        ("k", 0),
        ("n_base", 0),
        ("rounds", -1),
        ("random_per_round", 0),
        ("deletes_per_round", 0),
        ("n_probe", 2.5),
        ("n_clusters", True),
        ("planted_per_round", 1.5),
    ])
    def test_bad_count_rejected(self, field, value):
        with pytest.raises(IngestError, match=field):
            LifecycleConfig(**{field: value})

    def test_n_probe_above_n_clusters_rejected(self):
        with pytest.raises(IngestError, match="n_probe"):
            LifecycleConfig(n_clusters=4, n_probe=5)

    def test_more_clusters_than_base_rows_rejected(self):
        with pytest.raises(IngestError, match="n_clusters.*n_base"):
            LifecycleConfig(n_base=8)
        LifecycleConfig(n_base=16)  # n_clusters == n_base is fine

    @pytest.mark.parametrize("load", [-0.1, 1.5, float("nan")])
    def test_bad_interference_load_rejected(self, load):
        with pytest.raises(IngestError, match="interference_loads"):
            LifecycleConfig(interference_loads=(0.0, load))


class TestRunLifecycle:
    #: one small deterministic loop shared by the smoke assertions
    CONFIG = LifecycleConfig(
        n_base=256,
        rounds=2,
        planted_per_round=24,
        random_per_round=16,
        deletes_per_round=8,
        updates_per_round=2,
        probe_queries=3,
        k=8,
        n_clusters=8,
        n_probe=3,
        interference_loads=(0.0, 0.5),
        seed=11,
    )

    @pytest.fixture(scope="class")
    def report(self):
        return run_lifecycle(self.CONFIG)

    def test_staleness_degrades_and_delta_recovers(self, report):
        assert report.staleness[-1].stale_recall < report.staleness[0].stale_recall
        last = report.staleness[-1]
        assert last.with_delta_recall > last.stale_recall
        assert last.delta_fraction > 0

    def test_compaction_restores_recall(self, report):
        assert report.compaction.rows_rewritten > 0
        assert report.post_compaction_recall == pytest.approx(
            report.fresh_baseline_recall, abs=0.01
        )

    def test_reindex_is_the_fresh_baseline(self, report):
        # one build at set-up, one re-index when compaction finishes:
        # the baseline is that re-index, not a third build
        assert report.metrics["index.builds"] == 2
        assert report.metrics["index.reindexes"] == 1
        assert report.fresh_baseline_recall == report.post_compaction_recall

    def test_write_amplification_is_consistent(self, report):
        assert report.write_amplification >= 1.0
        assert report.host_writes > 0
        expected = (
            report.host_writes + report.gc_relocations
        ) / report.host_writes
        assert report.write_amplification == pytest.approx(expected)

    def test_interference_slows_queries_monotonically(self, report):
        slowdowns = [p.slowdown for p in report.interference]
        assert slowdowns[0] == pytest.approx(1.0)
        assert slowdowns[-1] > 1.0

    def test_report_serializes(self, report):
        card = report.as_dict()
        assert card["staleness"]["final_recall"] <= card["staleness"]["initial_recall"]
        assert card["mutations"] == report.mutations
        import json

        json.dumps(card)  # must be JSON-clean for the perf gate


class TestSmallLifecycles:
    """Regression: deletes can tombstone every clustered row.

    Then the stale probe reads only dead slots (an empty top-K, recall
    0) and later rounds have nothing left to delete; the loop must run
    on, at the CLI's default rounds and probe count.
    """

    def test_default_config_runs(self):
        report = run_lifecycle()
        assert report.config == LifecycleConfig()
        assert len(report.staleness) == report.config.rounds + 1
        assert report.compaction.rows_rewritten > 0

    def test_base_larger_than_its_region_rejected(self):
        # 8 blocks x 16 pages hold 1920 TextQA rows
        with pytest.raises(
            DeepStoreApiError, match=r"region_blocks=8 .* 2048 base rows"
        ):
            run_lifecycle(LifecycleConfig(n_base=2048))

    def test_rounds_that_overflow_the_region_rejected_up_front(
        self, monkeypatch
    ):
        # the base fits, but 1536 + 4 x (96 + 64 + 8) = 2208 rows do not;
        # the loop compacts only after its rounds, so it must refuse
        # before the first one
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran before the fit check")

        monkeypatch.setattr("repro.ingest.lifecycle._measure_recall", no_round)
        with pytest.raises(
            IngestError,
            match=r"^n_base=1536 \+ rounds=4 .* = 2208 rows, but "
            r"region_blocks x region_pages_per_block = 8 x 16 holds 1920 rows$",
        ):
            run_lifecycle(LifecycleConfig(n_base=1536))

    def test_reindex_over_fewer_rows_than_lists_rejected(self):
        # every base row deleted but two: the compaction's re-index
        # cannot fill 16 lists
        config = LifecycleConfig(
            n_base=16, rounds=1, planted_per_round=0, random_per_round=1,
            probe_queries=1, deletes_per_round=16, updates_per_round=0,
        )
        with pytest.raises(DeepStoreApiError, match=r"n_lists=16 .* has 2$"):
            run_lifecycle(config)

    @pytest.mark.parametrize("n_base", [16, 32, 64, 96])
    def test_runs_to_completion(self, n_base):
        report = run_lifecycle(
            LifecycleConfig(n_base=n_base, rounds=3, probe_queries=6)
        )
        assert len(report.staleness) == 4
        assert report.compaction.rows_rewritten > 0
        if n_base == 96:
            assert report.staleness[-1].stale_recall == 0.0
