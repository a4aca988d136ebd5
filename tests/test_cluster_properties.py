"""Property-based verification of the cluster layer's exactness.

Hypothesis sweeps what example tests cannot: arbitrary shard counts,
placements, K values, duplicate-heavy score distributions, and killed
replica sets.  The central claims:

* the streaming K-way merge over per-shard canonical top-K lists
  equals the brute-force global top-K — **always**;
* sharding is invisible: partition any scored dataset any way, take
  per-shard top-K, merge — same answer as no partitioning;
* failover never loses a shard's contribution, and an unservable
  shard (every replica dead) raises instead of answering wrongly;
* a hedged request never double-counts: exactly one payload per shard
  survives, and the winner is the replica that actually finished first.

Together with ``test_cluster_differential`` (bit-exact parity against
one real device) this suite carries the PR's correctness argument —
well over 500 generated cases per run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterError,
    ReplicaAttempt,
    ShardJob,
    make_placement,
    run_scatter,
)
from repro.core.topk import kway_merge_topk, topk_select

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
# coarse score grid => duplicate scores straddle the K-th place often,
# hammering the canonical (-score, id) tie-break
tied_scores = st.integers(min_value=0, max_value=12).map(lambda i: i / 12.0)
ks = st.integers(min_value=1, max_value=15)
shard_counts = st.integers(min_value=1, max_value=9)
placements = st.sampled_from(["range", "hash", "locality"])
seeds = st.integers(min_value=0, max_value=2**16)

score_lists = st.lists(tied_scores, min_size=1, max_size=120)

pair_partials = st.lists(
    st.lists(
        st.tuples(tied_scores, st.integers(min_value=0, max_value=400)),
        max_size=25,
    ),
    min_size=1,
    max_size=9,
)


def _canon(pairs):
    """Full canonical ordering of one partial (empty ones stay empty)."""
    return topk_select(pairs, len(pairs)) if pairs else []


# ----------------------------------------------------------------------
# streaming merge == brute force
# ----------------------------------------------------------------------
class TestMergeProperties:
    @given(pair_partials, ks)
    @settings(max_examples=200, deadline=None)
    def test_kway_merge_equals_brute_force(self, partials, k):
        canonical = [_canon(p) for p in partials]
        merged, stats = kway_merge_topk(canonical, k)
        # same answer as materializing and sorting every partial
        everything = [pair for p in partials for pair in p]
        assert merged == topk_select(everything, k)
        assert stats.entries_popped == len(merged) <= k
        assert stats.entries_offered == sum(len(p) for p in partials)

    @given(pair_partials, ks)
    @settings(max_examples=100, deadline=None)
    def test_merge_cost_accounting(self, partials, k):
        canonical = [_canon(p) for p in partials]
        _, stats = kway_merge_topk(canonical, k)
        if stats.lists <= 1:
            assert stats.comparisons == 0  # degenerate cluster: free
        else:
            assert stats.comparisons > 0 or stats.heap_ops == 0
        # every heap op is a heapify entry, a pop, or a push
        non_empty = sum(1 for p in canonical if p)
        assert stats.heap_ops <= non_empty + 2 * stats.entries_popped


# ----------------------------------------------------------------------
# sharding is invisible
# ----------------------------------------------------------------------
class TestShardingInvariance:
    @given(score_lists, shard_counts, placements, ks, seeds)
    @settings(max_examples=200, deadline=None)
    def test_partition_then_merge_equals_global(
        self, scores, n_shards, strategy, k, seed
    ):
        n = len(scores)
        placement = make_placement(strategy, n, n_shards, seed=seed)
        # exact partition: every global id owned exactly once, ascending
        seen = np.concatenate([ids for ids in placement.owners if len(ids)])
        assert sorted(seen.tolist()) == list(range(n))
        for ids in placement.owners:
            assert list(ids) == sorted(ids)

        partials = [
            topk_select([(scores[int(i)], int(i)) for i in ids], k)
            for ids in placement.owners
            if len(ids)
        ]
        merged, _ = kway_merge_topk(partials, k)
        expected = topk_select(list(zip(scores, range(n))), k)
        assert merged == expected

    @given(st.integers(min_value=0, max_value=200), shard_counts, seeds)
    @settings(max_examples=100, deadline=None)
    def test_hash_placement_is_deterministic(self, n, n_shards, seed):
        a = make_placement("hash", n, n_shards, seed=seed)
        b = make_placement("hash", n, n_shards, seed=seed)
        for x, y in zip(a.owners, b.owners):
            assert np.array_equal(x, y)

    @given(st.integers(min_value=1, max_value=200), placements, seeds)
    @settings(max_examples=50, deadline=None)
    def test_one_shard_is_identity(self, n, strategy, seed):
        placement = make_placement(strategy, n, 1, seed=seed)
        assert np.array_equal(placement.owners[0], np.arange(n))


# ----------------------------------------------------------------------
# failover + hedging over the scatter DES
# ----------------------------------------------------------------------
def _job(shard, replica_specs, detect=0.01, hedge_delay=None):
    """replica_specs: [(replica, alive, seconds), ...] in failover order."""
    attempts = tuple(
        ReplicaAttempt(
            replica=r,
            alive=alive,
            run=(lambda s=seconds, sh=shard, rr=r: (s, (sh, rr))),
        )
        for r, alive, seconds in replica_specs
    )
    return ShardJob(
        shard=shard, attempts=attempts, detect_seconds=detect,
        hedge_delay=hedge_delay,
    )


replica_plans = st.lists(  # per shard: (alive, seconds) per replica
    st.lists(
        st.tuples(st.booleans(),
                  st.floats(min_value=0.001, max_value=2.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=6,
)


class TestScatterProperties:
    @given(replica_plans)
    @settings(max_examples=150, deadline=None)
    def test_failover_uses_first_live_replica(self, plans):
        any_servable = any(any(alive for alive, _ in plan) for plan in plans)
        jobs = [
            _job(s, [(r, alive, secs) for r, (alive, secs) in enumerate(plan)])
            for s, plan in enumerate(plans)
        ]
        if not any_servable:
            # only a fully-dead *cluster* raises; a dead shard resolves
            # as a structured unavailable outcome below
            with pytest.raises(ClusterError):
                run_scatter(jobs)
            return
        result = run_scatter(jobs)
        assert len(result.outcomes) == len(plans)
        for outcome, plan in zip(result.outcomes, plans):
            if not any(alive for alive, _ in plan):
                assert outcome.unavailable
                assert outcome.replica == -1
                assert outcome.payload is None
                assert outcome.failovers == len(plan)  # every corpse tried
                assert outcome.detect_s == pytest.approx(0.01 * len(plan))
                assert outcome.done_s == pytest.approx(outcome.detect_s)
                continue
            first_live = next(r for r, (a, _) in enumerate(plan) if a)
            assert not outcome.unavailable
            assert outcome.replica == first_live
            assert outcome.payload == (outcome.shard, first_live)
            assert outcome.failovers == first_live  # corpses ahead of it
            assert outcome.detect_s == pytest.approx(0.01 * first_live)
            assert outcome.done_s == pytest.approx(
                outcome.detect_s + plan[first_live][1]
            )
        assert result.unavailable_shards == sum(
            1 for plan in plans if not any(a for a, _ in plan)
        )
        assert result.makespan_s == pytest.approx(
            max(o.done_s for o in result.outcomes)
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
            min_size=1, max_size=6,
        ),
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_hedge_never_double_counts(self, shard_times, hedge_delay):
        jobs = [
            _job(
                s,
                [(0, True, primary_s), (1, True, backup_s)],
                hedge_delay=hedge_delay,
            )
            for s, (primary_s, backup_s) in enumerate(shard_times)
        ]
        result = run_scatter(jobs)
        assert len(result.outcomes) == len(shard_times)
        for outcome, (primary_s, backup_s) in zip(
            result.outcomes, shard_times
        ):
            # exactly one payload survives, and it names its replica
            assert outcome.payload == (outcome.shard, outcome.replica)
            if primary_s <= hedge_delay:
                # primary beat the deadline (FIFO tie: completion wins)
                assert not outcome.hedged
                assert outcome.replica == 0
                assert outcome.done_s == pytest.approx(primary_s)
            else:
                assert outcome.hedged
                hedged_backup_done = hedge_delay + backup_s
                if hedged_backup_done < primary_s:
                    assert outcome.hedge_won and outcome.replica == 1
                    assert outcome.done_s == pytest.approx(hedged_backup_done)
                else:
                    assert not outcome.hedge_won and outcome.replica == 0
                    assert outcome.done_s == pytest.approx(primary_s)
        assert result.hedges_launched == sum(
            1 for o in result.outcomes if o.hedged
        )
        assert result.hedge_wins <= result.hedges_launched
