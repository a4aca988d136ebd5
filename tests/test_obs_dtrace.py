"""Tests for distributed query tracing and critical-path attribution.

Covers the collector (span trees, balance, flows), the Chrome export
(``X`` spans, ``s``/``f`` flow arrows, cancellation markers), the
coordinator's leg renderer on a cancelled hedge loser, the pinned span
tree of ``repro explain``'s default run, and the bit-exact cluster
critical path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    DeepStoreCluster,
    ReplicaAttempt,
    RetryPolicy,
    ShardJob,
    run_scatter,
)
from repro.cluster.coordinator import trace_leg
from repro.obs import (
    FleetAttribution,
    TraceCollector,
    cluster_critical_path,
    dtrace_chrome,
)
from repro.obs.dtrace import Segment
from repro.workloads import get_app


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
class TestTraceCollector:
    def test_span_tree(self):
        dt = TraceCollector()
        root = dt.start_trace("query 0", 0.0, kind="q", track="t")
        child = dt.start_span(root, "leg", 0.1, kind="leg", track="t")
        dt.end_span(child, 0.5)
        dt.end_span(root, 0.6, status="ok")
        assert dt.open_count == 0
        assert dt.span_count == 2
        assert dt.trace_ids() == [root.trace_id]
        spans = [s for s in dt.spans if s.trace_id == root.trace_id]
        assert {s.name for s in spans} == {"query 0", "leg"}
        roots = [s for s in spans if s.parent_span_id is None]
        assert [s.name for s in roots] == ["query 0"]
        kids = [s for s in spans if s.parent_span_id == root.span_id]
        assert [k.name for k in kids] == ["leg"]

    def test_add_span_one_shot(self):
        dt = TraceCollector()
        root = dt.start_trace("q", 0.0, kind="q", track="t")
        ctx = dt.add_span(root, "device", 0.1, 0.2, kind="dev",
                          track="device", pages=7)
        span = dt.spans[-1]
        assert span.span_id == ctx.span_id
        assert span.duration_s == pytest.approx(0.1)
        assert span.args["pages"] == 7
        assert dt.open_count == 1  # only the root is still open

    def test_end_span_merges_args_and_status(self):
        dt = TraceCollector()
        root = dt.start_trace("q", 0.0, kind="q", track="t", k=5)
        dt.end_span(root, 1.0, status="partial", latency_s=1.0)
        (span,) = dt.spans
        assert span.status == "partial"
        assert span.args["k"] == 5
        assert span.args["latency_s"] == 1.0

    def test_flow_arrows(self):
        dt = TraceCollector()
        root = dt.start_trace("q", 0.0, kind="q", track="t")
        leg = dt.start_span(root, "leg", 0.0, kind="leg", track="u")
        dt.flow(root, leg)
        dt.end_span(leg, 1.0)
        dt.end_span(root, 1.0)
        assert dt.flows == [(root.span_id, leg.span_id)]


# ----------------------------------------------------------------------
# Chrome export
# ----------------------------------------------------------------------
class TestDtraceChrome:
    def _forest(self):
        dt = TraceCollector()
        root = dt.start_trace("q", 0.0, kind="q", track="serving")
        leg = dt.start_span(root, "leg", 0.1, kind="leg", track="shard")
        dt.flow(root, leg)
        dt.end_span(leg, 0.4, status="cancelled")
        dt.end_span(root, 0.5)
        return dt

    def test_events_and_metadata(self):
        trace = dtrace_chrome(self._forest())
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        # one pid per track, named via metadata
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"serving", "shard"} <= names
        pids = {e["pid"] for e in xs}
        assert len(pids) == 2

    def test_microsecond_timestamps(self):
        events = dtrace_chrome(self._forest())["traceEvents"]
        leg = next(e for e in events if e["ph"] == "X"
                   and e["name"] == "leg")
        assert leg["ts"] == pytest.approx(0.1 * 1e6)
        assert leg["dur"] == pytest.approx(0.3 * 1e6)

    def test_flow_pair(self):
        events = dtrace_chrome(self._forest())["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["bp"] == "e"

    def test_non_ok_status_gets_marker(self):
        events = dtrace_chrome(self._forest())["traceEvents"]
        markers = [e for e in events if e["ph"] == "i"]
        assert any(m["name"] == "leg:cancelled" for m in markers)

    def test_unclosed_flow_endpoint_dropped(self):
        dt = TraceCollector()
        root = dt.start_trace("q", 0.0, kind="q", track="t")
        leg = dt.start_span(root, "leg", 0.0, kind="leg", track="t")
        dt.flow(root, leg)
        dt.end_span(root, 1.0)  # leg never closed
        events = dtrace_chrome(dt)["traceEvents"]
        assert not [e for e in events if e["ph"] in ("s", "f")]


# ----------------------------------------------------------------------
# cancelled hedge losers, rendered from the scatter outcome
# ----------------------------------------------------------------------
class _DeviceResult:
    """What the leg renderer reads of a winning replica's result."""

    def span_args(self):
        return {"cache_hit": False}


def _hedged_job(shard=0, primary_s=1.0, backup_s=0.1, hedge_delay=0.2):
    attempts = tuple(
        ReplicaAttempt(
            replica=r, alive=True,
            run=(lambda s=secs: (s, _DeviceResult())),
        )
        for r, secs in enumerate((primary_s, backup_s))
    )
    return ShardJob(shard=shard, attempts=attempts, hedge_delay=hedge_delay)


def _render(job):
    """Scatter one job, then render its leg under a fresh shard span."""
    (outcome,) = run_scatter([job]).outcomes
    dt = TraceCollector()
    root = dt.start_trace("q", 0.0, kind="q", track="t")
    shard_ctx = dt.start_span(root, "shard 0 leg", 0.0,
                              kind="cluster.shard", track="t")
    trace_leg(dt, shard_ctx, job, outcome, 0.0)
    dt.end_span(root, outcome.done_s)
    return outcome, dt, shard_ctx


class TestCancelledHedgeLoser:
    def test_loser_span_ends_at_cancellation(self):
        outcome, dt, _ = _render(_hedged_job())
        assert outcome.hedged and outcome.hedge_won
        # the loser (primary, replica 0) planned to run 1.0 s but was
        # cancelled when the backup finished at 0.2 + 0.1 = 0.3 s
        assert outcome.cancelled == ((0, 0.0),)
        (loser,) = [s for s in dt.spans if s.status == "cancelled"]
        assert loser.start_s == 0.0
        assert loser.end_s == pytest.approx(0.3)
        assert loser.end_s == outcome.done_s  # NOT its planned 1.0 s
        assert dt.open_count == 0

    def test_loser_exports_x_span_and_cancel_marker(self):
        _, dt, _ = _render(_hedged_job())
        events = dtrace_chrome(dt)["traceEvents"]
        loser = next(e for e in events if e["ph"] == "X"
                     and e["name"] == "attempt r0 (hedge loser)")
        assert loser["ts"] == 0.0
        assert loser["dur"] == pytest.approx(0.3e6)
        (marker,) = [e for e in events if e["ph"] == "i"]
        assert marker["name"] == "attempt r0 (hedge loser):cancelled"
        assert marker["ts"] == pytest.approx(0.3e6)
        assert not [e for e in events if e["ph"] in ("B", "E")]

    def test_winner_span_closes_at_completion(self):
        _, dt, _ = _render(_hedged_job())
        winner = next(s for s in dt.spans
                      if s.name == "attempt r1 (hedge winner)")
        assert winner.start_s == pytest.approx(0.2)
        assert winner.end_s == pytest.approx(0.3)
        assert winner.args == {"replica": 1, "hedged": True,
                               "hedge_won": True}
        device = next(s for s in dt.spans if s.kind == "device.query")
        assert (device.start_s, device.end_s) == (winner.start_s,
                                                  winner.end_s)

    def test_dtrace_records_loser_with_cancelled_status(self):
        _, dt, shard_ctx = _render(_hedged_job())
        (loser,) = [s for s in dt.spans if s.status == "cancelled"]
        assert loser.name == "attempt r0 (hedge loser)"
        assert loser.kind == "cluster.attempt"
        assert loser.args == {"replica": 0}
        assert loser.parent_span_id == shard_ctx.span_id
        # a primary that lands before its hedge timer cancels nothing
        outcome, dt, _ = _render(_hedged_job(primary_s=0.1))
        assert not outcome.hedged and outcome.cancelled == ()
        assert not [s for s in dt.spans if s.status == "cancelled"]


# ----------------------------------------------------------------------
# critical paths
# ----------------------------------------------------------------------
def _small_cluster(**kw):
    app = get_app("reid")
    kw.setdefault("n_shards", 3)
    kw.setdefault("n_replicas", 2)
    kw.setdefault("seed", 0)
    config = ClusterConfig(**kw)
    rng = np.random.default_rng(0)
    features = rng.normal(0, 1, (240, app.feature_floats)).astype(np.float32)
    cluster = DeepStoreCluster(config)
    db = cluster.write_db(features)
    model = cluster.load_graph(app.build_scn(seed=0))
    return cluster, db, model, app, rng


class TestClusterCriticalPath:
    def test_bit_exact_on_healthy_cluster(self):
        cluster, db, model, app, rng = _small_cluster()
        qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
        result = cluster.query(qfv, 5, model, db)
        path = cluster_critical_path(result)
        assert path.component_sum() == result.seconds  # IEEE-754 ==
        kinds = [s.kind for s in path.segments]
        assert kinds[0] == "fanout" and kinds[-1] == "gather"

    def test_bit_exact_under_hedging_retries_and_death(self):
        cluster, db, model, app, rng = _small_cluster(
            hedge_fraction=0.3,
            straggler_spread=0.5,
            fail_shards=((1, 0),),
            retry_policy=RetryPolicy(),
        )
        for _ in range(8):
            qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
            result = cluster.query(qfv, 5, model, db)
            path = cluster_critical_path(result)
            assert path.component_sum() == result.seconds

    def test_traced_query_matches_untraced(self):
        kw = dict(hedge_fraction=0.3, straggler_spread=0.5,
                  fail_shards=((1, 0),), retry_policy=RetryPolicy())
        cluster, db, model, app, rng = _small_cluster(**kw)
        twin, tdb, tmodel, _, trng = _small_cluster(**kw)
        dt = TraceCollector()
        for _ in range(4):
            qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
            tq = trng.normal(0, 1, app.feature_floats).astype(np.float32)
            assert np.array_equal(qfv, tq)
            a = cluster.query(qfv, 5, model, db, dtrace=dt)
            b = twin.query(tq, 5, tmodel, tdb)
            assert a.to_dict() == b.to_dict()  # tracing is zero-cost
        assert dt.open_count == 0
        assert len(dt.trace_ids()) == 4

    def test_trace_exports_device_leaf_spans(self):
        cluster, db, model, app, rng = _small_cluster()
        dt = TraceCollector()
        qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
        cluster.query(qfv, 5, model, db, dtrace=dt)
        kinds = {s.kind for s in dt.spans}
        assert "device.query" in kinds
        assert "cluster.scatter" in kinds
        assert "cluster.gather" in kinds


# ----------------------------------------------------------------------
# the explain scenario's span tree, pinned
# ----------------------------------------------------------------------
#: sha256 of the canonical span tree of ``repro explain``'s default run
EXPLAIN_TREE_DIGEST = (
    "b44194bd7795f4bbed88112964e3776bd4d90a0a73dd316a03b4de93dff1a412"
)


def _explain_collector():
    """Trace ``repro explain``'s default scenario into one collector:
    3x2 cluster, hedge 0.3, straggler 0.5, replica 1:0 dead,
    ``RetryPolicy()``, 8 queries at K=5."""
    from repro import cli
    from repro.workloads import train_scn

    args = cli.build_parser().parse_args(["explain"])
    app = get_app(args.app)
    config = cli._cluster_config(args, retry_policy=RetryPolicy())
    rng, features = cli._random_features(app, args)
    dt = TraceCollector()
    cluster = DeepStoreCluster(config)
    db = cluster.write_db(features)
    model = cluster.load_graph(train_scn(app, seed=args.seed))
    for _ in range(args.queries):
        qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
        cluster.query(qfv, args.k, model, db, dtrace=dt)
    return dt


def _canonical_tree(dt):
    """Spans and flows with span ids replaced by names, sorted."""
    names = {s.span_id: s.name for s in dt.spans}
    spans = sorted(
        [s.name, s.kind, s.track, s.start_s, s.end_s, s.status,
         sorted((s.args or {}).items()), names.get(s.parent_span_id, "")]
        for s in dt.spans
    )
    flows = sorted([names[src], names[dst]] for src, dst in dt.flows)
    return spans, flows


class TestExplainTreePinned:
    def test_tree_digest(self):
        dt = _explain_collector()
        spans, flows = _canonical_tree(dt)
        assert dt.open_count == 0
        assert len(spans) == 116
        assert sum(s[1] == "cluster.attempt" for s in spans) == 40
        assert sum(s[5] == "cancelled" for s in spans) == 16
        assert sum(s[1] == "cluster.detect" for s in spans) == 4
        blob = json.dumps([spans, flows]).encode()
        assert hashlib.sha256(blob).hexdigest() == EXPLAIN_TREE_DIGEST


# ----------------------------------------------------------------------
# fleet aggregation
# ----------------------------------------------------------------------
class TestFleetAttribution:
    def _path(self, total, kind="scan"):
        from repro.obs.dtrace import CriticalPath

        return CriticalPath(
            total_seconds=total,
            groups=[[Segment("x", kind, total)]],
        )

    def test_dominant_at_tail(self):
        fleet = FleetAttribution()
        for t in (0.1, 0.2, 0.3, 0.4):
            fleet.add(self._path(t, kind="scan"))
        fleet.add(self._path(9.0, kind="detect"))
        verdict = fleet.dominant_at(80.0)
        assert verdict["dominant"] == "detect"
        # nearest-rank p80 cut keeps the 0.4 s query in the tail too
        assert verdict["queries"] == 2
        assert verdict["share"] == pytest.approx(9.0 / 9.4)

    def test_exact_fraction(self):
        fleet = FleetAttribution()
        fleet.add(self._path(1.0))
        bad = self._path(1.0)
        bad.total_seconds = 2.0  # breaks the bit-exact sum
        fleet.add(bad)
        assert fleet.exact_fraction == pytest.approx(0.5)

    def test_empty_fleet(self):
        fleet = FleetAttribution()
        assert fleet.queries == 0
        verdict = fleet.dominant_at(99.0)
        assert verdict["queries"] == 0
