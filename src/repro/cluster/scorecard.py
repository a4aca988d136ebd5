"""The cluster performance scorecard (the CI perf gate's third leg).

Same philosophy as :mod:`repro.serving.scorecard`: every number is a
deterministic function of config + seed, so drift is a code change.
Three canonical scenarios:

* **scaling** — one app over 1/2/4/8 shards, the shard-count scaling
  curve (speedup vs one SSD, coordinator overhead fraction, merge
  comparisons);
* **replicated_failover** — 8 shards x 2 replicas with dead primaries:
  queries stay exact, the scorecard records the detection-ladder tax;
* **hedged** — stragglers plus hedged requests: how many hedges
  launched, how many won, and the makespan the hedging bought back.

The perf-gate leg registry, ``repro.analysis.scorecard.scorecard_legs()``,
lists this builder as the ``cluster`` leg; the gate diffs it leaf by
leaf against the checked-in baseline.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.config import ClusterConfig
from repro.cluster.model import ClusterModel
from repro.obs.metrics import MetricsRegistry
from repro.workloads.apps import get_app

SCORECARD_APP = "tir"
SCORECARD_FEATURES = 4_000_000
SCORECARD_K = 10
SCORECARD_SEED = 7
SCORECARD_SHARD_COUNTS = (1, 2, 4, 8)


def build_cluster_scorecard(
    app_name: str = SCORECARD_APP,
    n_features: int = SCORECARD_FEATURES,
    k: int = SCORECARD_K,
    seed: int = SCORECARD_SEED,
) -> Dict[str, object]:
    """Run the canonical cluster scenarios; return the perf scorecard."""
    app = get_app(app_name)

    # -- scaling: healthy cluster, 1..8 shards --------------------------
    scaling: List[Dict[str, object]] = []
    for shards in SCORECARD_SHARD_COUNTS:
        model = ClusterModel(
            ClusterConfig(n_shards=shards, placement="range", seed=seed)
        )
        est = model.estimate(app, n_features, k=k)
        overhead = est.scatter_seconds + est.gather_seconds
        scaling.append(
            {
                "shards": shards,
                "query_ms": est.seconds * 1e3,
                "speedup_vs_single": est.speedup_vs_single,
                "coordinator_overhead_fraction": (
                    overhead / est.seconds if est.seconds > 0 else 0.0
                ),
                "merge_comparisons": est.merge.comparisons,
                "utilization": est.utilization,
            }
        )

    # -- replicated failover: dead primaries never change answers ------
    failover_cfg = ClusterConfig(
        n_shards=8,
        n_replicas=2,
        placement="range",
        seed=seed,
        fail_shards=((0, 0), (3, 0)),
    )
    healthy_cfg = ClusterConfig(
        n_shards=8, n_replicas=2, placement="range", seed=seed
    )
    failover = ClusterModel(failover_cfg).estimate(app, n_features, k=k)
    healthy = ClusterModel(healthy_cfg).estimate(app, n_features, k=k)
    failover_block = {
        "dead_replicas": len(failover_cfg.fail_shards),
        "query_ms": failover.seconds * 1e3,
        "healthy_query_ms": healthy.seconds * 1e3,
        "slowdown": (
            failover.seconds / healthy.seconds
            if healthy.seconds > 0
            else 1.0
        ),
        "failovers": failover.failovers,
    }

    # -- hedged: stragglers + hedging, event counters drift-gated ------
    # the spread must exceed hedge_fraction + the backup's own straggle
    # for a hedge to be *able* to win (the slowdowns are intrinsic to a
    # replica here, not transient queueing): with spread 3.0 a primary
    # can run at up to 4x healthy while a near-healthy backup launched
    # at 1.25x healthy finishes around 2.3x — a win.  The scenario seed
    # is offset so the default draw includes a win on the critical
    # (slowest) shard, making makespan_saved_fraction a live gate.
    hedge_seed = seed + 9
    metrics = MetricsRegistry()
    straggler_cfg = ClusterConfig(
        n_shards=8,
        n_replicas=2,
        placement="range",
        seed=hedge_seed,
        straggler_spread=3.0,
    )
    hedged_cfg = ClusterConfig(
        n_shards=8,
        n_replicas=2,
        placement="range",
        seed=hedge_seed,
        straggler_spread=3.0,
        hedge_fraction=1.25,
    )
    straggled = ClusterModel(straggler_cfg).estimate(app, n_features, k=k)
    hedged = ClusterModel(hedged_cfg, metrics=metrics).estimate(
        app, n_features, k=k
    )
    hedged_block = {
        "straggled_query_ms": straggled.seconds * 1e3,
        "hedged_query_ms": hedged.seconds * 1e3,
        "makespan_saved_fraction": (
            1.0 - hedged.makespan_seconds / straggled.makespan_seconds
            if straggled.makespan_seconds > 0
            else 0.0
        ),
        "hedges_launched": hedged.hedges_launched,
        "hedge_wins": hedged.hedge_wins,
        "metrics_hedges_launched": metrics.counter(
            "cluster.hedges_launched"
        ).value,
    }

    return {
        "app": app_name,
        "features": n_features,
        "k": k,
        "seed": seed,
        "scaling": scaling,
        "failover": failover_block,
        "hedged": hedged_block,
    }


def cluster_metrics_snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """The ``cluster.*`` slice of a metrics snapshot (for --json)."""
    return {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("cluster.")
    }
