"""Property suite for the IVF index layer.

Hypothesis pins the four invariants the index rests on:

* **membership** — every id a routed query returns came from a probed
  list (or the unindexed delta when mutations are live);
* **monotone recall** — widening ``nprobe`` never loses a result: the
  number of returned scores clearing the exact k-th best score is
  non-decreasing in ``nprobe``, and the full probe recovers all of them
  (score-based, so it holds under any id tie-break);
* **canonical assignment** — k-means assigns each row to the argmin
  centroid under the canonical ``(-score, id)`` tie-break, with exact
  ties always resolving to the lowest list id;
* **lifecycle safety** — arbitrary build / insert / delete / update /
  compact interleavings, background compaction jobs that take mutations
  mid-run included, never surface a tombstoned id from a routed query,
  and keep one record of what is indexed: the store's delta is exactly
  the visible rows at or above the index boundary, and a build or
  re-index lists exactly the store's clustered rows.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import DeepStoreApiError
from repro.index import CentroidRouter, IndexedDevice, assign_canonical
from repro.index.device import query_exhaustive
from repro.index.kmeans import centroid_scores, train_kmeans
from repro.ingest import CompactionJob, CompactionPolicy
from repro.sim import Simulator
from repro.workloads import get_app

APP = get_app("textqa")
DIM = APP.feature_floats
GRAPH = APP.build_scn(seed=1)
N = 96
N_LISTS = 8
NPROBES = (1, 2, 4, 8)


def _build_shared():
    """One read-only indexed device shared by the query properties."""
    rng = np.random.default_rng(11)
    device = IndexedDevice()
    db = device.write_db(rng.normal(0, 1, (N, DIM)).astype(np.float32))
    model = device.load_graph(GRAPH)
    index = device.build_index(db, model, N_LISTS, iterations=4, seed=3)
    return device, db, model, index


DEVICE, DB, MODEL, INDEX = _build_shared()
META = DEVICE.ssd.ftl.get(DB)


def _route(probe, nprobe):
    """Recompute the routing decision exactly as the query path does."""
    router = CentroidRouter(
        INDEX.centroids, DEVICE._system("ssd"), GRAPH,
        feature_bytes=META.feature_bytes, page_bytes=META.page_bytes,
    )
    qfv = np.asarray(probe, dtype=np.float32).reshape(-1)
    return router.route(qfv, nprobe, DEVICE._score_features)


# ----------------------------------------------------------------------
# membership: returned ids ⊆ probed lists
# ----------------------------------------------------------------------
@given(
    qseed=st.integers(min_value=0, max_value=2**16),
    nprobe=st.integers(min_value=1, max_value=N_LISTS),
    k=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=120, deadline=None)
def test_returned_ids_come_from_probed_lists(qseed, nprobe, k):
    probe = np.random.default_rng(qseed).normal(0, 1, DIM).astype(np.float32)
    result = DEVICE.get_results(
        DEVICE.query(probe, k, MODEL, DB, nprobe=nprobe)
    )
    decision = _route(probe, nprobe)
    allowed = set(INDEX.lists.probed_ids(decision.list_ids).tolist())
    assert set(result.feature_ids.tolist()) <= allowed
    assert result.nprobe == decision.nprobe
    assert result.probed_rows == len(allowed)
    # a probed id belongs to exactly one list: list sizes partition N
    assert sum(INDEX.lists.sizes) == N


# ----------------------------------------------------------------------
# monotone recall in nprobe (score-based)
# ----------------------------------------------------------------------
@given(
    qseed=st.integers(min_value=0, max_value=2**16),
    k=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=120, deadline=None)
def test_recall_is_monotone_in_nprobe(qseed, k):
    probe = np.random.default_rng(qseed).normal(0, 1, DIM).astype(np.float32)
    exact = query_exhaustive(DEVICE, probe, k, MODEL, DB)
    kth = exact.scores[-1]
    counts = []
    for nprobe in NPROBES:
        got = DEVICE.get_results(
            DEVICE.query(probe, k, MODEL, DB, nprobe=nprobe)
        )
        counts.append(int(np.count_nonzero(got.scores >= kth)))
    assert counts == sorted(counts)
    # the full probe is the exhaustive scan: it recovers every result
    assert counts[-1] == k


# ----------------------------------------------------------------------
# canonical k-means assignment
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=8, max_value=40),
    dim=st.integers(min_value=2, max_value=8),
    n_lists=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_assignment_is_canonical_argmin(seed, n, dim, n_lists):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, (n, dim)).astype(np.float32)
    centroids, assignments = train_kmeans(data, n_lists, iterations=3,
                                          seed=seed)
    # independent selection: maximize score, break ties on lowest id
    scores = centroid_scores(data, centroids)
    for i in range(n):
        best = max(range(n_lists), key=lambda j: (scores[i, j], -j))
        assert assignments[i] == best
    assert np.array_equal(assignments, assign_canonical(data, centroids))


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=1, max_value=16),
    m=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_exact_ties_resolve_to_lowest_list(seed, n, m):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, (n, 4)).astype(np.float32)
    # m bit-identical centroids: every score ties, id breaks it
    centroid = rng.normal(0, 1, (1, 4)).astype(np.float32)
    centroids = np.repeat(centroid, m, axis=0)
    assert assign_canonical(data, centroids).tolist() == [0] * n


# ----------------------------------------------------------------------
# lifecycle interleavings: no tombstones, one record of what is indexed
# ----------------------------------------------------------------------
mutation = st.one_of(
    st.tuples(st.just("insert"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=10**6)),
)
ops = st.lists(
    st.one_of(
        mutation,
        st.tuples(st.just("compact"), st.just(0)),
        # a background compaction job that takes these mutations while
        # its chunks run, and re-indexes when it finishes
        st.tuples(st.just("job"), st.lists(mutation, max_size=3)),
        st.tuples(st.just("query"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=12,
)


def _listed(index):
    """Every id the index's lists hold, ascending."""
    return index.lists.probed_ids(range(index.n_lists))


@given(program=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_interleavings_never_surface_tombstones(program, seed):
    rng = np.random.default_rng(seed)
    device = IndexedDevice()
    db = device.write_db(rng.normal(0, 1, (24, DIM)).astype(np.float32))
    model = device.load_graph(GRAPH)
    device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
    store = device.lifecycle(db).store
    device.build_index(db, model, 4, iterations=2, seed=seed)
    assert np.array_equal(_listed(device.index_for(db)), store.clustered_ids)
    alive = list(range(24))
    dead = set()

    def check(nprobe):
        probe = rng.normal(0, 1, DIM).astype(np.float32)
        result = device.get_results(
            device.query(probe, 6, model, db, nprobe=nprobe)
        )
        returned = set(result.feature_ids.tolist())
        assert not (returned & dead)
        assert returned <= set(alive)

    def one_record():
        # the store's delta is exactly what the index does not cover
        visible = store.visible_ids()
        boundary = device.index_for(db).boundary
        assert boundary == store.clustered_rows
        assert np.array_equal(store.delta_ids(), visible[visible >= boundary])

    def mutate(op, arg):
        # keep enough rows alive for the 4-list re-index
        if op == "insert":
            new = device.insert_db(
                db, rng.normal(0, 1, (arg, DIM)).astype(np.float32)
            )
            alive.extend(int(i) for i in new)
        elif len(alive) > 8:
            victim = alive[arg % len(alive)]
            if op == "delete":
                device.delete_db_rows(db, [victim])
            else:
                row = rng.normal(0, 1, DIM).astype(np.float32)
                alive.append(device.update_db_row(db, victim, row))
            alive.remove(victim)
            dead.add(victim)
        one_record()

    def reindexed(_report):
        # the re-index covers the job's clustered rows that are still
        # alive: all of them unless a delete landed mid-job
        listed = _listed(device.reindex(db))
        assert np.array_equal(
            listed, np.intersect1d(store.clustered_ids, store.visible_ids())
        )

    for op, arg in program:
        if op == "compact":
            device.compact_db(db)
            assert np.array_equal(_listed(device.index_for(db)), store.clustered_ids)
            assert len(store.delta_ids()) == 0
        elif op == "job":
            sim = Simulator()
            job = CompactionJob(device, db, CompactionPolicy(chunk_rows=1))
            job.start(sim, on_done=reindexed)
            for i, (mop, marg) in enumerate(arg):
                sim.schedule(i * 1e-5, functools.partial(mutate, mop, marg))
            sim.run()
            assert not job.active
        elif op == "query":
            check(arg)
        else:
            mutate(op, arg)
        one_record()
    check(4)  # full probe + delta: still only live ids


def _ingest_rig(n_base, n_lists):
    rng = np.random.default_rng(4)
    device = IndexedDevice()
    db = device.write_db(rng.normal(0, 1, (n_base, DIM)).astype(np.float32))
    model = device.load_graph(GRAPH)
    device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
    device.build_index(db, model, n_lists, iterations=2, seed=0)
    return device, db, rng


def test_rows_inserted_during_a_job_stay_in_both_deltas():
    # the job clusters its start snapshot; rows that land while it runs
    # are delta for the store and for the re-index alike
    device, db, rng = _ingest_rig(24, 4)
    store = device.lifecycle(db).store
    device.insert_db(db, rng.normal(0, 1, (20, DIM)).astype(np.float32))
    sim = Simulator()
    job = CompactionJob(device, db)
    job.start(sim, on_done=lambda _: device.reindex(db))
    late = device.insert_db(db, rng.normal(0, 1, (5, DIM)).astype(np.float32))
    sim.run()
    visible = store.visible_ids()
    assert np.array_equal(store.delta_ids(), late)
    assert np.count_nonzero(visible >= device.index_for(db).boundary) == 5
    assert len(_listed(device.index_for(db))) == 44


def test_compaction_clusters_every_visible_row():
    # 4 clustered rows survive the deletes, fewer than the 8 lists, but
    # the compaction clusters all 44 visible rows, so it goes ahead
    device, db, rng = _ingest_rig(16, 8)
    store = device.lifecycle(db).store
    device.insert_db(db, rng.normal(0, 1, (40, DIM)).astype(np.float32))
    device.delete_db_rows(db, list(range(12)))
    device.compact_db(db)
    assert len(_listed(device.index_for(db))) == 44
    assert len(store.delta_ids()) == 0


def test_job_refuses_a_reindex_its_deletes_emptied_before_marking():
    # deletes that land mid-job leave 3 clustered rows for 4 lists: the
    # job must refuse before the store moves its clustered boundary
    device, db, rng = _ingest_rig(24, 4)
    store = device.lifecycle(db).store
    device.insert_db(db, rng.normal(0, 1, (10, DIM)).astype(np.float32))
    epoch, index = store.clustered_epoch, device.index_for(db)
    sim = Simulator()
    job = CompactionJob(device, db, CompactionPolicy(chunk_rows=1))
    job.start(sim, on_done=lambda _: device.reindex(db))
    sim.schedule(1e-6, lambda: device.delete_db_rows(db, list(range(31))))
    with pytest.raises(DeepStoreApiError, match=r"n_lists=4 .* has 3$"):
        sim.run()
    assert not job.active and job.report is None
    assert device.index_for(db) is index
    assert store.clustered_epoch == epoch
    assert store.clustered_rows == index.boundary == 24
    visible = store.visible_ids()
    assert np.array_equal(store.delta_ids(), visible[visible >= index.boundary])


def test_refused_job_charges_its_rewritten_chunks():
    # the refusal comes after every chunk went through the write path;
    # those seconds were spent and must reach the database's ledger
    device, db, rng = _ingest_rig(24, 4)
    state = device.lifecycle(db)
    device.insert_db(db, rng.normal(0, 1, (10, DIM)).astype(np.float32))
    rewrite = state.writepath.rewrite
    chunk_seconds = []

    def recording_rewrite(rows):
        op = rewrite(rows)
        chunk_seconds.append(op.seconds)
        return op

    state.writepath.rewrite = recording_rewrite
    ledger = []

    def delete_mid_job():
        device.delete_db_rows(db, list(range(31)))
        ledger.append(state.write_seconds)

    sim = Simulator()
    job = CompactionJob(device, db, CompactionPolicy(chunk_rows=1))
    job.start(sim)
    sim.schedule(1e-6, delete_mid_job)
    with pytest.raises(DeepStoreApiError, match=r"n_lists=4 .* has 3$"):
        sim.run()
    assert job.report is None and len(chunk_seconds) == 10
    charged = sum(chunk_seconds)  # in the job's order, as it adds them
    assert charged > 0
    assert state.write_seconds == ledger[0] + charged
