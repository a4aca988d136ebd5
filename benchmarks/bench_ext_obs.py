"""Extension: end-to-end query causality, attributed and alerted.

The paper's Fig. 2 attributes one device query's time to its phases.
This bench runs the production version of that argument end to end:

* **distributed tracing** — a hardened cluster day (hedging, retries,
  one dead replica) is traced into one causal span forest per query,
  exported as Chrome trace-event JSON (``dtrace.json`` CI artifact);
* **bit-exact attribution** — every query's critical path decomposes
  into named segments that sum with IEEE-754 ``==`` to the reported
  end-to-end seconds, and the fleet rollup answers *which segment
  dominates the p99 tail*;
* **SLO monitoring** — the chaos availability track feeds burn-rate
  alert rules; the scorecard gains a detection-time metric (first
  alert after the first kill), archived as ``slo_report.json``;
* **zero cost** — the traced run's scorecard block is byte-identical
  to the untraced one.
"""

import json

from repro.analysis import Table
from repro.chaos import ChaosConfig, run_cluster_chaos
from repro.cluster import ClusterConfig, DeepStoreCluster, RetryPolicy
from repro.obs import (
    FleetAttribution,
    TraceCollector,
    cluster_critical_path,
    dtrace_chrome,
)
from repro.recovery.scorecard import SCORECARD_SEED
from repro.workloads import get_app, train_scn

import numpy as np

from conftest import RESULTS_DIR, emit

#: the acceptance scenario: hedging + retries + one dead replica, so
#: every interesting segment kind shows up in the attribution
N_QUERIES = 8
CLUSTER = ClusterConfig(
    n_shards=3,
    n_replicas=2,
    seed=0,
    hedge_fraction=0.3,
    straggler_spread=0.5,
    fail_shards=((1, 0),),
    retry_policy=RetryPolicy(),
)


def run_traced_day(scale: int = 1):
    app = get_app("tir")
    rng = np.random.default_rng(0)
    features = rng.normal(0, 1, (2_000 * scale, app.feature_floats)).astype(
        np.float32
    )
    dtrace = TraceCollector()
    cluster = DeepStoreCluster(CLUSTER)
    db = cluster.write_db(features)
    model = cluster.load_graph(train_scn(app, seed=0))
    queries = [
        rng.normal(0, 1, app.feature_floats).astype(np.float32)
        for _ in range(N_QUERIES * scale)
    ]
    results = [
        cluster.query(q, 5, model, db, dtrace=dtrace) for q in queries
    ]

    # the untraced twin: same day, no collector attached
    twin = DeepStoreCluster(CLUSTER)
    twin_db = twin.write_db(features)
    twin_model = twin.load_graph(train_scn(app, seed=0))
    untraced = [twin.query(q, 5, twin_model, twin_db) for q in queries]
    return results, untraced, dtrace


def attribution_table(paths, fleet):
    table = Table(
        f"Extension: critical-path attribution ({len(paths)} traced "
        f"queries, {CLUSTER.n_shards}x{CLUSTER.n_replicas} cluster)",
        ["query", "total (us)", "critical segment", "share", "bit-exact"],
    )
    for q, path in enumerate(paths):
        top = max(path.segments, key=lambda s: s.seconds)
        share = (
            top.seconds / path.total_seconds * 100.0
            if path.total_seconds > 0 else 0.0
        )
        table.add_row(
            f"{q:5d}",
            f"{path.total_seconds * 1e6:10.2f}",
            top.name,
            f"{share:5.1f}%",
            "yes" if path.bit_exact else "NO",
        )
    dominant = fleet.dominant_at(99.0)
    table.add_row(
        "p99", "", f"dominant kind: {dominant['dominant']}",
        f"{dominant['share'] * 100:5.1f}%", "",
    )
    return table


def slo_table(report):
    table = Table(
        "Extension: SLO burn-rate alerting over the chaos day",
        ["quantity", "value"],
    )
    rows = [
        ("availability", f"{report.availability:.3f}"),
        ("alerts fired", f"{len(report.alerts)}"),
        ("first kill (ms)",
         f"{report.first_fault_s * 1e3:.2f}"
         if report.first_fault_s is not None else "-"),
        ("first alert (ms)",
         f"{report.first_alert_s * 1e3:.2f}"
         if report.first_alert_s is not None else "-"),
        ("alert latency (ms)",
         f"{report.alert_latency_s * 1e3:.2f}"
         if report.alert_latency_s is not None else "-"),
    ]
    for name, value in rows:
        table.add_row(f"{name:24s}", value)
    return table


def test_ext_obs_attribution(benchmark, bench_scale):
    results, untraced, dtrace = benchmark.pedantic(
        run_traced_day, args=(bench_scale,), rounds=1, iterations=1
    )

    # --- zero cost: the traced day equals the untraced day, byte for byte
    assert [r.to_dict() for r in results] == [
        r.to_dict() for r in untraced
    ]

    # --- attribution: every query sums bit-exactly to its total
    paths = [cluster_critical_path(r) for r in results]
    fleet = FleetAttribution()
    for path in paths:
        fleet.add(path)
    for path, result in zip(paths, results):
        assert path.component_sum() == result.seconds  # IEEE-754 ==
    assert fleet.exact_fraction == 1.0
    emit(attribution_table(paths, fleet), "ext_obs_attribution.txt")

    # --- tracing: a balanced span forest, one trace per query
    assert dtrace.open_count == 0
    assert len(dtrace.trace_ids()) == N_QUERIES
    trace = dtrace_chrome(dtrace)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "dtrace.json").write_text(
        json.dumps(trace, indent=2, sort_keys=True) + "\n"
    )
    events = trace["traceEvents"]
    assert any(e["ph"] == "s" for e in events)  # flow arrows present


def test_ext_obs_slo_artifact():
    """The SLO report is bit-stable and lands in results/ for CI upload."""
    report = run_cluster_chaos(ChaosConfig(seed=SCORECARD_SEED))
    emit(slo_table(report), "ext_obs_slo.txt")
    payload = {
        "availability": report.availability,
        "first_fault_s": report.first_fault_s,
        "first_alert_s": report.first_alert_s,
        "alert_latency_s": report.alert_latency_s,
        "slo": report.slo,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "slo_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    # the chaos day must be *detected*, not just survived
    assert report.first_fault_s is not None
    assert report.alerts
    assert report.alert_latency_s is not None
    assert report.alert_latency_s >= 0.0
    # bit-stable across runs (what lets CI archive and diff it)
    again = run_cluster_chaos(ChaosConfig(seed=SCORECARD_SEED))
    assert again.alert_latency_s == report.alert_latency_s
    assert again.slo == report.slo
