"""Property suite: snapshot top-K equals oracle replay, always.

Hypothesis drives arbitrary interleavings of insert / delete / update /
snapshot-query operations against a :class:`MutableFeatureStore` and
checks the two invariants the whole subsystem rests on:

* the store's visible set at any epoch equals an **independent replay**
  of the mutation log (two implementations, one answer);
* the exact top-K over a snapshot never contains a tombstoned id and is
  identical to the oracle's top-K over the replayed visible set —
  including the canonical tie-break order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.topk import topk_select
from repro.ingest.store import (
    MutableFeatureStore,
    oracle_replay,
    oracle_topk,
)

DIM = 6

# an interleaving is a list of ops; integers parameterize each op so the
# whole program shrinks well
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("update"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("query"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=1,
    max_size=24,
)


def _fresh_store(n_base: int = 12, seed: int = 0) -> MutableFeatureStore:
    rng = np.random.default_rng(seed)
    return MutableFeatureStore(
        rng.normal(0, 1, (n_base, DIM)).astype(np.float32)
    )


def _scores_for(store: MutableFeatureStore, seed: int) -> np.ndarray:
    """Deterministic per-id scores with deliberate ties."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 8, size=store.n_rows)  # small range forces ties
    return raw.astype(np.float64)


def _store_topk(store, snapshot, scores, k):
    visible = store.visible_ids(snapshot)
    pairs = [(float(scores[i]), int(i)) for i in visible]
    return topk_select(pairs, k)


@given(program=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_snapshot_topk_equals_oracle_replay(program, seed):
    store = _fresh_store(seed=seed)
    base = store.features().copy()
    rng = np.random.default_rng(seed + 1)
    checkpoints = []  # (snapshot, k) captured mid-interleaving
    for op, arg in program:
        alive = store.visible_ids()
        if op == "insert":
            store.insert(rng.normal(0, 1, (arg, DIM)).astype(np.float32))
        elif op == "delete" and len(alive):
            store.delete([int(alive[arg % len(alive)])])
        elif op == "update" and len(alive):
            store.update(
                int(alive[arg % len(alive)]),
                rng.normal(0, 1, DIM).astype(np.float32),
            )
        elif op == "query":
            checkpoints.append((store.snapshot(), arg))
    checkpoints.append((store.snapshot(), 5))

    scores = _scores_for(store, seed)
    for snapshot, k in checkpoints:
        # the snapshot's view must equal an independent log replay...
        _, oracle_visible = oracle_replay(base, store.log, snapshot.epoch)
        assert store.visible_ids(snapshot).tolist() == oracle_visible
        # ...and the exact top-K must match the oracle's, ties included
        expected = oracle_topk(store.features(), oracle_visible, scores, k)
        assert _store_topk(store, snapshot, scores, k) == expected


@given(program=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_tombstoned_ids_never_appear_in_results(program, seed):
    store = _fresh_store(seed=seed)
    rng = np.random.default_rng(seed + 1)
    dead = set()
    for op, arg in program:
        alive = store.visible_ids()
        if op == "insert":
            store.insert(rng.normal(0, 1, (arg, DIM)).astype(np.float32))
        elif op == "delete" and len(alive):
            victim = int(alive[arg % len(alive)])
            store.delete([victim])
            dead.add(victim)
        elif op == "update" and len(alive):
            victim = int(alive[arg % len(alive)])
            store.update(victim, rng.normal(0, 1, DIM).astype(np.float32))
            dead.add(victim)
        elif op == "query":
            scores = _scores_for(store, seed)
            top = _store_topk(store, store.snapshot(), scores, arg)
            assert not ({fid for _, fid in top} & dead)
    scores = _scores_for(store, seed)
    top = _store_topk(store, store.snapshot(), scores, 8)
    assert not ({fid for _, fid in top} & dead)
    # every tombstone is individually invisible
    for fid in dead:
        assert not store.is_visible(fid)


@given(
    n_insert=st.integers(min_value=0, max_value=6),
    n_delete=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_visible_count_conservation(n_insert, n_delete, seed):
    """visible = base + inserted - deleted, for any operation counts."""
    store = _fresh_store(seed=seed)
    rng = np.random.default_rng(seed)
    base = len(store.visible_ids())
    store_inserted = 0
    if n_insert:
        store.insert(rng.normal(0, 1, (n_insert, DIM)).astype(np.float32))
        store_inserted = n_insert
    alive = store.visible_ids()
    doomed = [int(i) for i in alive[: min(n_delete, len(alive))]]
    if doomed:
        store.delete(doomed)
    assert len(store.visible_ids()) == base + store_inserted - len(doomed)
    assert store.n_tombstones == len(doomed)
