"""Tests for dataset partitioning across cluster shards."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterModel,
    ShardPlacement,
    hash_placement,
    locality_placement,
    make_placement,
    range_placement,
)
from repro.cluster.config import PLACEMENT_STRATEGIES
from repro.cluster.placement import _owners_from_assignment, placement_sizes
from repro.workloads import get_app
from tests.conftest import traced_peak_mb


class TestRangePlacement:
    def test_contiguous_and_balanced(self):
        placement = range_placement(10, 3)
        assert sorted(placement.shard_sizes) == [3, 3, 4]
        flat = np.concatenate(placement.owners)
        assert np.array_equal(flat, np.arange(10))  # contiguous slices
        for ids in placement.owners:
            assert np.array_equal(ids, np.arange(ids[0], ids[-1] + 1))

    def test_more_shards_than_features_leaves_empty_shards(self):
        placement = range_placement(2, 5)
        assert sum(placement.shard_sizes) == 2
        assert placement.non_empty_shards() == [
            s for s, ids in enumerate(placement.owners) if len(ids)
        ]
        assert len(placement.non_empty_shards()) == 2

    def test_imbalance_close_to_one(self):
        assert range_placement(1000, 7).imbalance < 1.01


class TestHashPlacement:
    def test_decorrelates_from_insert_order(self):
        placement = hash_placement(1000, 4)
        # no shard owns a long contiguous prefix
        for ids in placement.owners:
            assert len(ids) > 0
            assert not np.array_equal(ids, np.arange(len(ids)))

    def test_seed_changes_assignment(self):
        a = hash_placement(500, 4, seed=0)
        b = hash_placement(500, 4, seed=1)
        assert any(
            not np.array_equal(x, y) for x, y in zip(a.owners, b.owners)
        )

    def test_reasonably_balanced(self):
        assert hash_placement(10_000, 8).imbalance < 1.1


class TestLocalityPlacement:
    def test_block_cyclic_without_features(self):
        placement = locality_placement(64, 4)
        assert placement.strategy == "locality"
        assert sum(placement.shard_sizes) == 64
        # neighbouring ids co-shard in blocks
        assert any(0 in ids and 1 in ids for ids in placement.owners)

    def test_embedding_aware_respects_balance_cap(self):
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, (200, 16)).astype(np.float32)
        placement = locality_placement(200, 4, features=features, seed=3)
        assert sum(placement.shard_sizes) == 200
        assert max(placement.shard_sizes) <= int(np.ceil(2.0 * 200 / 4))

    def test_co_shards_similar_features(self):
        rng = np.random.default_rng(1)
        # two tight, well-separated clusters
        a = rng.normal(0, 0.01, (50, 8)) + 10.0
        b = rng.normal(0, 0.01, (50, 8)) - 10.0
        features = np.vstack([a, b]).astype(np.float32)
        placement = locality_placement(100, 2, features=features, seed=0)
        # each cluster lands (almost) entirely on one shard
        assert sorted(sorted(ids.tolist()) for ids in placement.owners) == [
            list(range(50)), list(range(50, 100))
        ]

    def test_feature_shape_validated(self):
        with pytest.raises(ValueError):
            locality_placement(10, 2, features=np.zeros((5, 4)))


class TestShardPlacement:
    def test_partition_must_be_exact(self):
        with pytest.raises(ValueError):
            ShardPlacement(
                "range", 5, (np.arange(2, dtype=np.int64),)
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_placement("alphabetical", 10, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            range_placement(-1, 2)
        with pytest.raises(ValueError):
            range_placement(10, 0)
        with pytest.raises(ValueError):
            hash_placement(10, 0)
        with pytest.raises(ValueError):
            locality_placement(10, 0)


class TestPlacementSizes:
    """``placement_sizes`` is ``make_placement``'s sizes, minus the ids."""

    @given(
        strategy=st.sampled_from(PLACEMENT_STRATEGIES),
        n_features=st.integers(min_value=0, max_value=400),
        n_shards=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    @example(strategy="hash", n_features=0, n_shards=3, seed=0)
    @example(strategy="range", n_features=2, n_shards=9, seed=1)
    @example(strategy="locality", n_features=5, n_shards=7, seed=2)
    @example(strategy="range", n_features=101, n_shards=4, seed=3)
    def test_equals_make_placement(self, strategy, n_features, n_shards, seed):
        sizes = placement_sizes(strategy, n_features, n_shards, seed=seed)
        expected = make_placement(strategy, n_features, n_shards, seed=seed)
        assert sizes == list(expected.shard_sizes)
        assert all(type(size) is int for size in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            placement_sizes("alphabetical", 10, 2)
        with pytest.raises(ValueError):
            placement_sizes("hash", -1, 2)
        with pytest.raises(ValueError):
            placement_sizes("range", 10, 0)

    def test_range_estimate_builds_no_id_array(self):
        # 32M ids as int64 would be 244 MB; the estimate prices sizes only
        model = ClusterModel(ClusterConfig(n_shards=4, placement="range"))
        app = get_app("tir")
        assert traced_peak_mb(lambda: model.estimate(app, 32_000_000)) < 64


def _sorted_owners(assignment, n_shards):
    """Per-shard ids by an explicit sort of each shard's members."""
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(n_shards + 1))
    return [
        np.sort(order[bounds[s] : bounds[s + 1]]).astype(np.int64)
        for s in range(n_shards)
    ]


def _assignment(strategy, n_features, n_shards, seed):
    """The per-id shard formulas of hash and block-cyclic locality."""
    if strategy == "hash":
        ids = np.arange(n_features, dtype=np.uint64)
        mixed = (ids + np.uint64(seed * 2 + 1)) * np.uint64(0x9E3779B97F4A7C15)
        return (mixed % np.uint64(n_shards)).astype(np.int64)
    block = max(1, n_features // (n_shards * 8) or 1)
    return (np.arange(n_features, dtype=np.int64) // block) % n_shards


def _assert_same_owners(got, expected):
    assert len(got) == len(expected)
    for ids, want in zip(got, expected):
        assert ids.dtype == np.int64
        assert np.array_equal(ids, want)


class TestOwnersFromAssignment:
    """The stable argsort's slices are the sorted per-shard ids."""

    @given(
        strategy=st.sampled_from(["hash", "locality"]),
        n_features=st.integers(min_value=0, max_value=400),
        n_shards=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    @example(strategy="hash", n_features=0, n_shards=3, seed=0)
    @example(strategy="hash", n_features=2, n_shards=9, seed=1)
    @example(strategy="locality", n_features=5, n_shards=7, seed=2)
    def test_placements_match_sorted_formula(
        self, strategy, n_features, n_shards, seed
    ):
        placement = make_placement(strategy, n_features, n_shards, seed=seed)
        assignment = _assignment(strategy, n_features, n_shards, seed)
        _assert_same_owners(
            placement.owners, _sorted_owners(assignment, n_shards)
        )

    @given(
        n_shards=st.integers(min_value=1, max_value=9),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_assignment_matches_sorted_formula(self, n_shards, data):
        assignment = np.array(
            data.draw(st.lists(st.integers(0, n_shards - 1), max_size=300)),
            dtype=np.int64,
        )
        _assert_same_owners(
            _owners_from_assignment(assignment, n_shards),
            _sorted_owners(assignment, n_shards),
        )
