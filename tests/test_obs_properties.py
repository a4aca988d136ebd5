"""Property-based verification of critical-path attribution.

Hypothesis sweeps what the example tests cannot: arbitrary scatter
interleavings — failover ladders of any depth, retry-backoff rungs
that may exhaust, hedge timers that win, lose, or never fire, breaker
rejections, and shards that resolve unavailable.  The central claims:

* the slowest leg's additive decomposition (detect + backoff +
  hedge-wait + scan) reproduces the scatter state machine's ``done_s``
  with IEEE-754 ``==`` — for *every* shard, not just the critical one;
* :func:`cluster_critical_path` folds ``(fanout + leg) + gather`` to
  the exact float the coordinator reported as end-to-end seconds;
* the coordinator's leg renderer draws every outcome as a closed span
  tree: one cancelled loser per launched hedge, ending when the winner
  landed, and nothing outliving the leg;
* attribution is **zero-overhead**: attaching a trace collector leaves
  every cluster result dict byte-identical to the untraced twin.

Together with the example suites in ``test_obs_dtrace.py`` this
carries the PR's exactness argument — 300+ generated interleavings
per run, far beyond what the eight-query acceptance day covers.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    DeepStoreCluster,
    ReplicaAttempt,
    RetryPolicy,
    ShardJob,
    run_scatter,
)
from repro.cluster.coordinator import (
    ClusterQueryResult,
    ShardReport,
    trace_leg,
)
from repro.core.topk import KWayMergeStats
from repro.obs import (
    FleetAttribution,
    TraceCollector,
    cluster_critical_path,
)
from repro.workloads import get_app, train_scn

# ----------------------------------------------------------------------
# strategies: one scatter scenario = per-shard replica plans plus the
# knobs that perturb the leg state machine (hedge timer, retry ladder,
# detection cost), plus the coordinator's own fan-out/gather floats
# ----------------------------------------------------------------------
run_secs = st.floats(min_value=0.001, max_value=2.0,
                     allow_nan=False, allow_infinity=False)
pause_secs = st.floats(min_value=0.0, max_value=0.5,
                       allow_nan=False, allow_infinity=False)
overhead_secs = st.floats(min_value=0.0, max_value=0.01,
                          allow_nan=False, allow_infinity=False)


@st.composite
def scatter_scenarios(draw):
    n_shards = draw(st.integers(min_value=1, max_value=5))
    shards = []
    for _ in range(n_shards):
        plan = draw(st.lists(st.tuples(st.booleans(), run_secs),
                             min_size=1, max_size=4))
        hedge = draw(st.one_of(
            st.none(),
            st.floats(min_value=0.001, max_value=1.5,
                      allow_nan=False, allow_infinity=False),
        ))
        backoff = draw(st.one_of(
            st.none(),
            st.lists(pause_secs, min_size=0, max_size=3).map(tuple),
        ))
        detect = draw(st.floats(min_value=0.0, max_value=0.05,
                                allow_nan=False, allow_infinity=False))
        breakers = draw(st.integers(min_value=0, max_value=2))
        shards.append((plan, hedge, backoff, detect, breakers))
    scatter_s = draw(overhead_secs)
    gather_s = draw(overhead_secs)
    return shards, scatter_s, gather_s


class _DeviceResult:
    """What the leg renderer reads of a winning replica's result."""

    def span_args(self):
        return {}


def _jobs(shards):
    jobs = []
    for s, (plan, hedge, backoff, detect, breakers) in enumerate(shards):
        attempts = tuple(
            ReplicaAttempt(
                replica=r,
                alive=alive,
                run=(lambda sec=seconds: (sec, _DeviceResult())),
            )
            for r, (alive, seconds) in enumerate(plan)
        )
        jobs.append(ShardJob(
            shard=s,
            attempts=attempts,
            detect_seconds=detect,
            hedge_delay=hedge,
            backoff_delays=backoff,
            breaker_rejected=tuple(
                (len(plan) + i, "open") for i in range(breakers)
            ),
        ))
    return jobs


def _reports(scatter, jobs):
    """Mirror the coordinator's report construction, float for float."""
    reports = []
    for outcome, job in zip(scatter.outcomes, jobs):
        if outcome.unavailable:
            reports.append(ShardReport(
                shard=outcome.shard,
                replica=-1,
                seconds=outcome.done_s,
                detect_seconds=outcome.detect_s,
                failovers=outcome.failovers,
                hedged=False,
                hedge_won=False,
                cache_hit=False,
                retry_pause_seconds=outcome.retry_pause_s,
                unavailable=True,
                breaker_rejections=len(job.breaker_rejected),
            ))
            continue
        reports.append(ShardReport(
            shard=outcome.shard,
            replica=outcome.replica,
            seconds=outcome.done_s,
            detect_seconds=outcome.detect_s,
            failovers=outcome.failovers,
            hedged=outcome.hedged,
            hedge_won=outcome.hedge_won,
            cache_hit=False,
            retry_pause_seconds=outcome.retry_pause_s,
            service_seconds=outcome.service_s,
            hedge_wait_seconds=outcome.hedge_wait_s,
            hedge_saved_seconds=outcome.hedge_saved_s,
            breaker_rejections=len(job.breaker_rejected),
        ))
    return reports


def _result(scatter, jobs, scatter_s, gather_s):
    # same association order as the coordinator's latency arithmetic:
    # total = scatter_s + scatter.makespan_s + gather_s
    total = scatter_s + scatter.makespan_s + gather_s
    return ClusterQueryResult(
        feature_ids=np.zeros(0, dtype=np.int64),
        scores=np.zeros(0, dtype=np.float32),
        seconds=total,
        scatter_seconds=scatter_s,
        gather_seconds=gather_s,
        makespan_seconds=scatter.makespan_s,
        n_contacted=len(jobs),
        merge=KWayMergeStats(
            lists=len(jobs), entries_offered=0, entries_popped=0,
            heap_ops=0,
        ),
        shards=_reports(scatter, jobs),
    )


def _leg_fold(report):
    """Left-fold the leg segments exactly as CriticalPath does."""
    total = 0.0
    if report.detect_seconds != 0.0:
        total += report.detect_seconds
    if report.retry_pause_seconds != 0.0:
        total += report.retry_pause_seconds
    if not report.unavailable:
        if report.hedge_won:
            total += report.hedge_wait_seconds
        total += report.service_seconds
    return total


# ----------------------------------------------------------------------
# the bit-exactness property, over arbitrary interleavings
# ----------------------------------------------------------------------
class TestBitExactAttribution:
    @given(scatter_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_critical_path_sums_bit_exactly(self, scenario):
        shards, scatter_s, gather_s = scenario
        jobs = _jobs(shards)
        try:
            scatter = run_scatter(jobs)
        except ClusterError:
            # a fully-unavailable cluster has no latency to attribute
            assume(False)
        result = _result(scatter, jobs, scatter_s, gather_s)
        path = cluster_critical_path(result)
        assert path.component_sum() == result.seconds  # IEEE-754 ==
        assert path.bit_exact
        # the named critical shard is the one the max() picked
        crit = max(result.shards, key=lambda s: s.seconds)
        assert path.info["critical_shard"] == crit.shard
        assert path.as_dict()["bit_exact"] is True

    @given(scatter_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_every_leg_decomposes_to_done_s(self, scenario):
        """Stronger than the critical path: *each* shard's additive
        segments replay the state machine's ``done_s`` exactly."""
        shards, _scatter_s, _gather_s = scenario
        jobs = _jobs(shards)
        try:
            scatter = run_scatter(jobs)
        except ClusterError:
            assume(False)
        for report in _reports(scatter, jobs):
            assert _leg_fold(report) == report.seconds  # IEEE-754 ==

    @given(scatter_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_rendered_legs_close_at_done_s(self, scenario):
        """Every leg renders as a closed tree ending at its ``done_s``."""
        shards, scatter_s, _gather_s = scenario
        jobs = _jobs(shards)
        try:
            scatter = run_scatter(jobs)
        except ClusterError:
            assume(False)
        for outcome, job in zip(scatter.outcomes, jobs):
            dt = TraceCollector()
            leg = dt.start_trace(f"shard {job.shard} leg", scatter_s,
                                 kind="cluster.shard", track="test")
            trace_leg(dt, leg, job, outcome, scatter_s)
            assert dt.open_count == 0
            *children, closed = dt.spans
            done = scatter_s + outcome.done_s
            assert closed.span_id == leg.span_id and closed.end_s == done
            assert all(s.end_s <= done for s in children)
            losers = [s for s in children if s.status == "cancelled"]
            # a launched hedge leaves exactly one loser, cut off when
            # the winner landed
            assert len(losers) == len(outcome.cancelled)
            assert len(losers) == int(outcome.hedged)
            assert all(s.end_s == done for s in losers)
            attempts = [s for s in children if s.kind == "cluster.attempt"]
            assert len(attempts) == (
                0 if outcome.unavailable else 1 + len(losers)
            )
            rejected = [s for s in children if s.status == "rejected"]
            assert len(rejected) == len(job.breaker_rejected)


# ----------------------------------------------------------------------
# acceptance: a real hardened cluster day, every query bit-exact
# ----------------------------------------------------------------------
def _hardened_cluster():
    return DeepStoreCluster(ClusterConfig(
        n_shards=3,
        n_replicas=2,
        seed=0,
        hedge_fraction=0.3,
        straggler_spread=0.5,
        fail_shards=((1, 0),),
        retry_policy=RetryPolicy(),
    ))


class TestRealClusterAcceptance:
    def test_hardened_day_is_bit_exact(self):
        app = get_app("reid")
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, (240, app.feature_floats)).astype(
            np.float32
        )
        dtrace = TraceCollector()
        cluster = _hardened_cluster()
        db = cluster.write_db(features)
        model = cluster.load_graph(train_scn(app, seed=0))
        fleet = FleetAttribution()
        saw_failover = saw_hedge = False
        for _ in range(8):
            q = rng.normal(0, 1, app.feature_floats).astype(np.float32)
            result = cluster.query(q, 5, model, db, dtrace=dtrace)
            path = cluster_critical_path(result)
            assert path.component_sum() == result.seconds
            fleet.add(path)
            saw_failover = saw_failover or result.failovers > 0
            saw_hedge = saw_hedge or result.hedges_launched > 0
        assert fleet.exact_fraction == 1.0
        # the scenario actually exercised the hard segments
        assert saw_failover and saw_hedge
        assert dtrace.open_count == 0


# ----------------------------------------------------------------------
# zero overhead: observability attached == observability absent
# ----------------------------------------------------------------------
class TestZeroOverheadParity:
    def test_cluster_parity(self):
        app = get_app("reid")
        rng = np.random.default_rng(1)
        features = rng.normal(0, 1, (240, app.feature_floats)).astype(
            np.float32
        )
        queries = [
            rng.normal(0, 1, app.feature_floats).astype(np.float32)
            for _ in range(4)
        ]

        def day(dtrace=None):
            cluster = _hardened_cluster()
            db = cluster.write_db(features)
            model = cluster.load_graph(train_scn(app, seed=0))
            return [
                cluster.query(q, 5, model, db, dtrace=dtrace).to_dict()
                for q in queries
            ]

        assert day(dtrace=TraceCollector()) == day()
