"""Ingest maintenance paths against in-test copies of their plain versions.

Three maintenance paths keep bookkeeping whose cost should track the
work it records, and each must stay bit-identical to the simple
implementation it replaced:

* ``train_kmeans`` scores centroid-major in row blocks from one float64
  copy and sums float32 member gathers in float64; the reference keeps
  the plain formula in-test — row-major ``2·(x·c) − |c|²`` scores
  converted on every pass, argmax over each row, masked float64
  ``.mean()`` — so it shares no code with the function under test;
* ``DeepStoreDevice.append_db`` appends into a buffer with slack; the
  reference concatenates the whole store on every call, and arrays
  taken before an append must keep their rows;
* ``IngestWritePath.append`` walks the id list with a cursor; the
  reference re-slices the remaining ids for every page.

It also pins two ``LifecycleDevice`` fixes: an ``update_db_row`` with a
row of the wrong dim changes nothing, and ``delete_db_rows`` counts the
ids of an iterator it tombstones.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.api import DeepStoreApiError, DeepStoreDevice
from repro.index.kmeans import assign_canonical, centroid_scores, train_kmeans
from repro.ingest import IngestWritePath, LifecycleDevice
from repro.ingest.writepath import WriteOp
from repro.ssd import Ssd


# ----------------------------------------------------------------------
# train_kmeans
# ----------------------------------------------------------------------
def _reference_scores(data, centroids):
    """``(n, k)`` scores, row-major: ``2·(x·c) − |c|²`` in float64."""
    data = np.asarray(data, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    return 2.0 * (data @ centroids.T) - (centroids * centroids).sum(axis=1)


def _reference_assign(data, centroids):
    """First-max argmax over each row's scores: the ``(-score, id)`` rule."""
    return np.argmax(_reference_scores(data, centroids), axis=1).astype(np.int64)


def _reference_kmeans(data, n_lists, iterations, seed):
    """The plain Lloyd loop: per-pass conversion, masked float64 means."""
    data = np.asarray(data, dtype=np.float32)
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=n_lists, replace=False)].astype(
        np.float64
    )
    for _ in range(iterations):
        assignments = _reference_assign(data, centroids)
        for j in range(n_lists):
            members = data[assignments == j]
            if len(members):
                centroids[j] = members.astype(np.float64).mean(axis=0)
            else:
                biggest = int(np.bincount(assignments, minlength=n_lists).argmax())
                pool = np.flatnonzero(assignments == biggest)
                centroids[j] = data[pool[int(rng.integers(0, len(pool)))]]
    centroids32 = centroids.astype(np.float32)
    return centroids32, _reference_assign(data, centroids32)


@st.composite
def _kmeans_cases(draw):
    """Small data sets rich in exact ties and duplicated rows."""
    dim = draw(st.integers(1, 6))
    distinct = draw(st.integers(1, 12))
    repeats = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # integer grid values: exact score ties between centroids
        rows = draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
            min_size=distinct, max_size=distinct,
        ))
        data = np.asarray(rows, dtype=np.float32)
    else:
        seed = draw(st.integers(0, 2**16))
        data = np.random.default_rng(seed).normal(0, 1, (distinct, dim))
        data = data.astype(np.float32)
    # tiled copies: identical rows start identical centroids, so lists
    # empty out and take the reseed path
    data = np.tile(data, (repeats, 1))
    n = len(data)
    n_lists = draw(st.one_of(st.just(n), st.integers(1, n)))
    return data, n_lists, draw(st.integers(1, 4)), draw(st.integers(0, 50))


class TestTrainKmeans:
    @settings(max_examples=150, deadline=None)
    @given(_kmeans_cases())
    @example((np.zeros((5, 3), np.float32), 5, 3, 0))
    @example((np.tile(np.eye(3, dtype=np.float32), (4, 1)), 6, 2, 7))
    def test_bit_equal_to_per_pass_conversion(self, case):
        data, n_lists, iterations, seed = case
        centroids, assignments = train_kmeans(data, n_lists, iterations, seed)
        ref_centroids, ref_assignments = _reference_kmeans(
            data, n_lists, iterations, seed
        )
        assert centroids.dtype == ref_centroids.dtype == np.float32
        assert assignments.dtype == ref_assignments.dtype == np.int64
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert assignments.tobytes() == ref_assignments.tobytes()

    def test_float64_input_matches_its_float32_cast(self):
        data = np.random.default_rng(4).normal(0, 1, (60, 5))
        got = train_kmeans(data, 7, 3, 1)
        want = _reference_kmeans(data.astype(np.float32), 7, 3, 1)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_bit_equal_at_workload_shape(self):
        # the benchmark's shape, scaled down: BLAS blocking, several
        # uneven score blocks, lists of hundreds of members
        rng = np.random.default_rng(10)
        # magnitudes spread over eight decades, so that float64 sums
        # and dot products round, and a change of order shows
        data = rng.normal(0, 1, (10_000, 512)) * 10.0 ** rng.uniform(
            -4, 4, (10_000, 1)
        )
        data = data.astype(np.float32)
        centroids, assignments = train_kmeans(data, 64, 8, 3)
        ref_centroids, ref_assignments = _reference_kmeans(data, 64, 8, 3)
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert assignments.tobytes() == ref_assignments.tobytes()

    @pytest.mark.parametrize("dim, n_lists, seed", [(1, 1, 0), (2, 2, 1)])
    def test_member_means_keep_summation_order(self, dim, n_lists, seed):
        # the +-1e30 rows cancel, so a mean depends on which ones are
        # summed before the -1e30 row: any change of order shows in
        # float32.  One column: the float64 mean sums it pairwise, where
        # a float32 column cast in 8192-row buffers groups differently.
        # Two lists: a list's members must be summed in row order.
        data = np.ones((20_000, dim), np.float32)
        if dim == 2:
            data[1::2, 0] = -1  # even and odd rows: two lists
        data[2, -1], data[10_002, -1] = 1e30, -1e30
        got = train_kmeans(data, n_lists, 1, seed)
        want = _reference_kmeans(data, n_lists, 1, seed)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestKmeansScores:
    @settings(max_examples=60, deadline=None)
    @given(_kmeans_cases())
    def test_small_shapes_bit_equal(self, case):
        data, n_lists, _, seed = case
        centroids = np.random.default_rng(seed).normal(0, 1, (n_lists, data.shape[1]))
        want = _reference_scores(data, centroids)
        got = centroid_scores(data, centroids)
        assert got.shape == want.shape == (len(data), n_lists)
        assert got.tobytes() == want.tobytes()
        assert assign_canonical(data, centroids).tobytes() == (
            _reference_assign(data, centroids).tobytes()
        )

    def test_workload_shape_bit_equal(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, (9_000, 512)).astype(np.float32)
        centroids = rng.normal(0, 1, (64, 512)).astype(np.float32)
        assert centroid_scores(data, centroids).tobytes() == (
            _reference_scores(data, centroids).tobytes()
        )
        assert assign_canonical(data, centroids).tobytes() == (
            _reference_assign(data, centroids).tobytes()
        )


# ----------------------------------------------------------------------
# append_db
# ----------------------------------------------------------------------
class TestAppendDb:
    DIM = 4

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(1, 40),
        batches=st.lists(st.integers(1, 30), min_size=1, max_size=25),
        seed=st.integers(0, 1000),
    )
    def test_run_of_appends_equals_concatenate(self, base, batches, seed):
        rng = np.random.default_rng(seed)
        device = DeepStoreDevice()
        first = rng.normal(0, 1, (base, self.DIM)).astype(np.float32)
        db = device.write_db(first)
        reference = first.copy()
        taken = [(device._store(db), reference.copy())]
        for rows in batches:
            features = rng.normal(0, 1, (rows, self.DIM)).astype(np.float32)
            device.append_db(db, features)
            reference = np.concatenate([reference, features])
            store = device._store(db)
            assert store.dtype == np.float32 and store.flags.c_contiguous
            assert store.tobytes() == reference.tobytes()
            assert device.read_db(db).tobytes() == reference.tobytes()
            assert device.ssd.ftl.get(db).feature_count == len(reference)
            taken.append((store, reference.copy()))
        # every array taken before a later append still holds its rows
        for array, rows in taken:
            assert array.tobytes() == rows.tobytes()

    def test_read_db_copy_survives_appends(self):
        device = DeepStoreDevice()
        db = device.write_db(np.ones((3, self.DIM), np.float32))
        before = device.read_db(db)
        head = device._store(db)[:2]
        for value in range(2, 40):
            device.append_db(db, np.full((value, self.DIM), value, np.float32))
        assert before.tobytes() == np.ones((3, self.DIM), np.float32).tobytes()
        assert head.tobytes() == np.ones((2, self.DIM), np.float32).tobytes()
        assert device.read_db(db, 0, 3).tobytes() == before.tobytes()

    def test_slack_is_bounded(self):
        device = DeepStoreDevice()
        db = device.write_db(np.zeros((800, self.DIM), np.float32))
        for _ in range(50):
            device.append_db(db, np.ones((4, self.DIM), np.float32))
            n = len(device._store(db))
            assert len(device._feature_buffers[db]) <= n + max(4, n // 8) + n // 8

    def test_dim_mismatch_changes_nothing(self):
        device = DeepStoreDevice()
        db = device.write_db(np.zeros((5, self.DIM), np.float32))
        store = device._store(db)
        with pytest.raises(DeepStoreApiError):
            device.append_db(db, np.zeros((2, self.DIM + 1), np.float32))
        assert device._store(db) is store
        assert device.ssd.ftl.get(db).feature_count == 5


# ----------------------------------------------------------------------
# IngestWritePath.append
# ----------------------------------------------------------------------
def _reference_append(path, ids):
    """The page loop that re-slices the remaining ids for every page."""
    ids = [int(i) for i in ids]
    for fid in ids:
        if fid in path._row_lpn:
            raise AssertionError(f"feature id {fid} already on flash")
    before = path._snapshot_stats()
    pages = 0
    remaining = ids
    while remaining:
        if path._open_lpn is None or path._open_count >= path.rows_per_page:
            path._open_lpn = path._allocate_lpn()
            path._open_count = 0
        take = min(len(remaining), path.rows_per_page - path._open_count)
        batch, remaining = remaining[:take], remaining[take:]
        path._program(path._open_lpn)
        pages += 1
        for fid in batch:
            path._row_lpn[fid] = path._open_lpn
        path._lpn_live[path._open_lpn] = path._lpn_live.get(path._open_lpn, 0) + take
        path._open_count += take
    return path._measure(before, pages_written=pages, pages_trimmed=0, rows=len(ids))


def _path_state(path):
    stats = path.stats
    return (
        list(path._row_lpn.items()),
        list(path._lpn_live.items()),
        path._open_lpn,
        path._open_count,
        list(path._free_lpns),
        (stats.host_writes, stats.relocations, stats.erases, stats.gc_invocations),
    )


class TestWritePathAppend:
    @staticmethod
    def _twins(ssd):
        # five rows per page, a small region so GC and the free list move
        feature_bytes = ssd.config.geometry.page_bytes // 5
        return [
            IngestWritePath(ssd, feature_bytes, blocks=16, pages_per_block=8)
            for _ in range(2)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(st.integers(1, 23), st.integers(0, 9), st.booleans()),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 1000),
    )
    def test_matches_reference_across_pages_and_deletes(self, plan, seed):
        ssd = Ssd()
        path, ref = self._twins(ssd)
        rng = np.random.default_rng(seed)
        next_id = 0
        live = []
        for rows, deletes, drop_open in plan:
            ids = list(range(next_id, next_id + rows))
            next_id += rows
            got = path.append(np.asarray(ids, dtype=np.int64))
            want = _reference_append(ref, ids)
            assert isinstance(got, WriteOp) and got == want
            assert _path_state(path) == _path_state(ref)
            live += ids
            doomed = []
            if drop_open and path._open_lpn is not None:
                # free the open page: delete every row it holds
                doomed = [f for f in live if path._row_lpn[f] == path._open_lpn]
            picks = rng.permutation(len(live))[:deletes].tolist()
            doomed = sorted(set(doomed) | {live[p] for p in picks})
            if doomed:
                assert path.delete(doomed) == ref.delete(doomed)
                live = [f for f in live if f not in set(doomed)]
                assert _path_state(path) == _path_state(ref)

    def test_large_append_matches_reference(self, ssd):
        path, ref = self._twins(ssd)
        ids = list(range(3, 400))
        assert path.append(ids) == _reference_append(ref, ids)
        assert _path_state(path) == _path_state(ref)


# ----------------------------------------------------------------------
# LifecycleDevice fixes
# ----------------------------------------------------------------------
def _ingest_device(dim=16, rows=32):
    device = LifecycleDevice()
    rng = np.random.default_rng(0)
    db = device.write_db(rng.normal(0, 1, (rows, dim)).astype(np.float32))
    device.enable_ingest(db, region_blocks=8, region_pages_per_block=16)
    return device, db


class TestLifecycleFixes:
    def test_update_with_wrong_dim_changes_nothing(self):
        device, db = _ingest_device()
        state = device.lifecycle(db)
        path_before = _path_state(state.writepath)
        rows_before = device.read_db(db)
        with pytest.raises(DeepStoreApiError, match=r"\b8\b.*\b16\b"):
            device.update_db_row(db, 5, np.zeros(8))
        assert device.db_epoch(db) == 0
        assert state.store.epoch == 0
        assert state.store.is_visible(5)
        assert state.store.n_rows == 32 and state.store.log == []
        assert _path_state(state.writepath) == path_before
        assert device.read_db(db).tobytes() == rows_before.tobytes()
        assert device.metrics.counter("ingest.deletes").value == 0

    def test_insert_with_wrong_dim_raises_api_error(self):
        device, db = _ingest_device()
        with pytest.raises(DeepStoreApiError, match=r"\b8\b.*\b16\b"):
            device.insert_db(db, np.zeros((2, 8), np.float32))
        assert device.db_epoch(db) == 0
        assert device.lifecycle(db).store.n_rows == 32

    def test_delete_counts_an_iterator(self):
        device, db = _ingest_device()
        device.delete_db_rows(db, iter([1, 4, 9]))
        assert device.metrics.counter("ingest.deletes").value == 3
        store = device.lifecycle(db).store
        assert [store.is_visible(f) for f in (1, 4, 9)] == [False] * 3

    def test_compaction_trims_dead_rows_in_ascending_order(self, monkeypatch):
        device, db = _ingest_device(rows=64)
        device.insert_db(db, np.ones((6, 16), np.float32))
        device.delete_db_rows(db, [40, 3, 66, 17])
        device.compact_db(db)
        device.delete_db_rows(db, [50, 2, 68])
        state = device.lifecycle(db)
        snap = state.store.snapshot()
        expected = [
            fid
            for fid in range(snap.n_rows)
            if not state.store.is_visible(fid, snap) and state.writepath.has_row(fid)
        ]
        seen = []
        delete = state.writepath.delete

        def record(ids):
            seen.append(list(ids))
            return delete(ids)

        monkeypatch.setattr(state.writepath, "delete", record)
        device.compact_db(db)
        assert expected == [2, 50, 68]
        assert seen[0] == expected
