"""Tests for the hardware top-K sorter and the merge step."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import (
    KWayMergeStats,
    TopKSorter,
    kway_merge_topk,
    topk_select,
)


def merge(partials, k):
    """The reduce step: the canonical top-K of every partial's pairs."""
    return topk_select([pair for partial in partials for pair in partial], k)


class TestTopKSorter:
    def test_keeps_best_k(self):
        sorter = TopKSorter(3)
        for i, score in enumerate([0.1, 0.9, 0.5, 0.7, 0.3]):
            sorter.update(score, i)
        assert [fid for _, fid in sorter.results()] == [1, 3, 2]

    def test_results_sorted_descending(self, rng):
        sorter = TopKSorter(8)
        for i in range(100):
            sorter.update(float(rng.random()), i)
        scores = [s for s, _ in sorter.results()]
        assert scores == sorted(scores, reverse=True)

    def test_rejects_below_minimum_when_full(self):
        sorter = TopKSorter(2)
        sorter.update(0.9, 0)
        sorter.update(0.8, 1)
        assert not sorter.update(0.5, 2)
        assert sorter.inserts == 2
        assert sorter.updates == 3

    def test_partial_fill(self):
        sorter = TopKSorter(10)
        sorter.update(0.5, 0)
        assert sorter.size == 1
        assert sorter.min_score == float("-inf")

    def test_cycle_accounting(self):
        sorter = TopKSorter(4)
        sorter.update(0.5, 0)
        # 1 compare + log2(4) search + shift
        assert sorter.cycles >= 3

    def test_expected_cycles_close_to_one_for_long_streams(self):
        sorter = TopKSorter(10)
        # over a million candidates almost every update is a reject
        assert sorter.expected_cycles_per_update(1_000_000) < 1.1
        assert sorter.expected_cycles_per_update(10) > 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKSorter(0)
        with pytest.raises(ValueError):
            TopKSorter(5).expected_cycles_per_update(0)

    @given(st.lists(st.floats(min_value=0, max_value=1,
                              allow_nan=False), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_sorted_reference(self, scores, k):
        sorter = TopKSorter(k)
        for i, s in enumerate(scores):
            sorter.update(s, i)
        got = [s for s, _ in sorter.results()]
        expected = sorted(scores, reverse=True)[:k]
        assert got == pytest.approx(expected)


class TestMergeTopK:
    """Per-accelerator top-Ks reduce to the global one (paper §4.7.1)."""

    def test_merges_partials(self):
        partials = [
            [(0.9, 1), (0.5, 2)],
            [(0.8, 3), (0.7, 4)],
        ]
        merged = merge(partials, 3)
        assert merged == [(0.9, 1), (0.8, 3), (0.7, 4)]
        assert kway_merge_topk(partials, 3)[0] == merged

    def test_handles_empty_partials(self):
        assert merge([[], [(0.5, 1)]], 2) == [(0.5, 1)]
        assert kway_merge_topk([[], [(0.5, 1)]], 2)[0] == [(0.5, 1)]

    def test_ties_break_by_feature_id(self):
        merged = merge([[(0.5, 9)], [(0.5, 1)]], 2)
        assert merged == [(0.5, 1), (0.5, 9)]
        assert kway_merge_topk([[(0.5, 9)], [(0.5, 1)]], 2)[0] == merged

    def test_validation(self):
        with pytest.raises(ValueError):
            merge([], 0)

    @given(
        st.lists(
            st.lists(st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 999)),
                     max_size=20),
            min_size=1, max_size=8,
        ),
        st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_global_sort(self, partials, k):
        merged = merge(partials, k)
        everything = sorted(
            (item for p in partials for item in p),
            key=lambda pair: (-pair[0], pair[1]),
        )
        assert merged == everything[:k]


class TestTopKSelect:
    def test_canonical_order(self):
        pairs = [(0.5, 9), (0.9, 4), (0.5, 1), (0.9, 2)]
        assert topk_select(pairs, 3) == [(0.9, 2), (0.9, 4), (0.5, 1)]

    def test_k_larger_than_input(self):
        assert topk_select([(0.3, 0)], 10) == [(0.3, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            topk_select([(0.1, 0)], 0)


class TestKWayMergeTopK:
    def test_matches_materialized_merge(self):
        partials = [
            [(0.9, 1), (0.5, 2)],
            [(0.8, 3), (0.7, 4)],
            [],
        ]
        merged, _ = kway_merge_topk(partials, 3)
        assert merged == merge(partials, 3)

    def test_single_list_costs_zero_comparisons(self):
        # the degenerate one-shard cluster must add zero hidden cost
        merged, stats = kway_merge_topk([[(0.9, 0), (0.1, 1)]], 2)
        assert merged == [(0.9, 0), (0.1, 1)]
        assert stats.lists == 1
        assert stats.comparisons == 0

    def test_empty_input_costs_nothing(self):
        merged, stats = kway_merge_topk([[], []], 5)
        assert merged == []
        assert stats.heap_ops == 0
        assert stats.entries_popped == 0

    def test_stats_accounting(self):
        partials = [
            [(0.9, 1), (0.5, 2)],
            [(0.8, 3), (0.7, 4)],
        ]
        merged, stats = kway_merge_topk(partials, 3)
        assert stats.lists == 2
        assert stats.entries_offered == 4
        assert stats.entries_popped == 3
        # heapify(2 heads) + 3 pops + 2 refill pushes (last pop drains)
        assert stats.heap_ops == 7
        assert stats.comparisons == 7  # ceil(log2(2)) == 1

    def test_streaming_stops_at_k(self):
        # only K entries are popped no matter how much was offered
        partials = [[(1.0 - i / 100, i) for i in range(50)]]
        _, stats = kway_merge_topk(partials, 3)
        assert stats.entries_popped == 3
        assert stats.entries_offered == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            kway_merge_topk([[(0.5, 0)]], 0)

    def test_comparisons_scale_with_log_lists(self):
        stats = KWayMergeStats(
            lists=8, entries_offered=0, entries_popped=0, heap_ops=10
        )
        assert stats.comparisons == 30  # 10 * ceil(log2(8))
