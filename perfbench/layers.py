"""Which program functions the traced run wraps, and the per-layer metrics.

Every function is wrapped at the name its caller looks up: a method on
its class, or a module-level function in the *calling* module's
namespace (``repro.cluster.coordinator.kway_merge_topk``, not
``repro.core.topk.kway_merge_topk``).  Nothing under ``src/repro`` is
edited; :meth:`SpanRecorder.unpatch` puts every original back.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

import numpy as np

from spans import SpanRecorder, layer_totals

def _rows(args, result):
    yield "nn.rows_scored", float(np.shape(result)[0])


def _cache(args, result):
    yield "cache.lookups", 1.0
    yield "cache.hits", float(bool(result.hit))


def _events(args, result, before):
    yield "sim.events", float(args[0].events_processed - before)


def _events_before(args):
    return args[0].events_processed


#: (span name, module, owner class ("" for a module function), function
#: name, options for :meth:`SpanRecorder.wrap`)
WRAPS: Tuple[Tuple[str, str, str, str, Dict[str, object]], ...] = (
    ("nn.score", "repro.nn.graph", "Graph", "forward", {"counter": _rows}),
    ("nn.score.dense", "repro.nn.layers", "Dense", "forward", {}),
    ("nn.score.conv", "repro.nn.layers", "Conv2D", "forward", {}),
    ("nn.train", "repro.nn.training", "PairTrainer", "fit", {"opaque": True}),
    ("core.device_query", "repro.core.api", "DeepStoreDevice", "query", {}),
    ("core.device_query", "repro.ingest.device", "LifecycleDevice", "query", {}),
    ("core.device_query", "repro.index.device", "IndexedDevice", "query", {}),
    ("core.latency_model", "repro.core.deepstore", "DeepStoreSystem", "latency_for", {}),
    ("core.latency_model", "repro.core.deepstore", "DeepStoreSystem",
     "degraded_latency_for", {}),
    ("core.topk", "repro.cluster.coordinator", "", "kway_merge_topk", {}),
    ("core.topk", "repro.cluster.coordinator", "", "topk_select", {}),
    ("core.topk", "repro.ingest.device", "", "topk_select", {}),
    ("core.query_cache", "repro.core.query_cache", "QueryCache", "lookup",
     {"counter": _cache}),
    ("core.query_cache", "repro.core.query_cache", "QueryCache", "insert", {}),
    ("cluster.query", "repro.cluster.coordinator", "DeepStoreCluster", "query", {}),
    ("cluster.scatter", "repro.cluster.coordinator", "", "run_scatter", {}),
    ("ingest.writepath", "repro.ingest.writepath", "IngestWritePath", "append", {}),
    ("ingest.writepath", "repro.ingest.writepath", "IngestWritePath", "delete", {}),
    ("ingest.writepath", "repro.ingest.writepath", "IngestWritePath", "rewrite", {}),
    ("ingest.store", "repro.ingest.store", "MutableFeatureStore", "insert", {}),
    ("ingest.store", "repro.ingest.store", "MutableFeatureStore", "delete", {}),
    ("ingest.store", "repro.ingest.store", "MutableFeatureStore", "snapshot", {}),
    ("ingest.store", "repro.ingest.store", "MutableFeatureStore", "visible_ids", {}),
    ("ingest.mutate", "repro.ingest.device", "LifecycleDevice", "insert_db", {}),
    ("ingest.mutate", "repro.ingest.device", "LifecycleDevice", "delete_db_rows", {}),
    ("ingest.mutate", "repro.ingest.device", "LifecycleDevice", "update_db_row", {}),
    ("ingest.compact", "repro.ingest.device", "LifecycleDevice", "compact_db", {}),
    ("ingest.compact", "repro.index.device", "IndexedDevice", "compact_db", {}),
    ("index.kmeans", "repro.index.build", "", "train_kmeans", {}),
    ("index.build", "repro.index.device", "", "build_ivf_index", {}),
    ("index.build", "repro.index.device", "IndexedDevice", "build_index", {}),
    ("index.router", "repro.index.router", "CentroidRouter", "route", {}),
    ("sim.kernel", "repro.sim.engine", "Simulator", "run",
     {"counter": _events, "pre": _events_before}),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue", "offer", {}),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue", "pop_batch", {}),
    ("serving.batcher", "repro.serving.batcher", "BatchCostModel", "service_seconds", {}),
    ("serving.batcher", "repro.cluster.serving", "ClusterBatchCostModel",
     "service_seconds", {}),
    ("tenancy.admission", "repro.tenancy.admission", "WeightedFairQueue", "offer", {}),
    ("tenancy.admission", "repro.tenancy.admission", "WeightedFairQueue", "pop_batch", {}),
    ("tenancy.autoscale", "repro.tenancy.autoscale", "Autoscaler", "evaluate", {}),
    ("obs.slo", "repro.obs.slo", "SloMonitor", "record", {}),
    ("tenancy.trace", "repro.tenancy.trace", "", "generate_day", {}),
    ("tenancy.server_build", "repro.tenancy.server", "MultiTenantServer", "__init__", {}),
    ("tenancy.server", "repro.tenancy.server", "MultiTenantServer", "run", {}),
)

#: span name -> metric name for every layer reported as host self time
#: per timed op (seconds / op)
TIMED_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("nn.score", "nn.score.self_s"),
    ("nn.score.dense", "nn.score.dense_s"),
    ("nn.score.conv", "nn.score.conv_s"),
    ("core.device_query", "core.device_query.self_s"),
    ("core.latency_model", "core.latency_model.self_s"),
    ("core.topk", "core.topk.self_s"),
    ("core.query_cache", "core.query_cache.self_s"),
    ("cluster.query", "cluster.query.self_s"),
    ("cluster.scatter", "cluster.scatter.self_s"),
    ("ingest.writepath", "ingest.writepath.self_s"),
    ("ingest.store", "ingest.store.self_s"),
    ("ingest.mutate", "ingest.mutate.self_s"),
    ("ingest.compact", "ingest.compact.self_s"),
    ("index.kmeans", "index.kmeans.self_s"),
    ("index.build", "index.build.self_s"),
    ("index.router", "index.router.self_s"),
    ("sim.kernel", "sim.kernel.self_s"),
    ("serving.admission", "serving.admission.self_s"),
    ("serving.batcher", "serving.batcher.self_s"),
    ("tenancy.admission", "tenancy.admission.self_s"),
    ("tenancy.autoscale", "tenancy.autoscale.self_s"),
    ("obs.slo", "obs.slo.self_s"),
    ("tenancy.server", "tenancy.server.self_s"),
)

#: span name -> metric name for layers reported as self seconds of one
#: set-up (they do their work before the timed phase)
SETUP_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("nn.train", "nn.train.self_s"),
    ("tenancy.trace", "tenancy.trace.self_s"),
)


def instrument(recorder: SpanRecorder) -> List[str]:
    """Wrap every function in :data:`WRAPS`; returns the ones missing."""
    missing = []
    for span, module_name, owner_name, attr, options in WRAPS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        if not recorder.patch(owner, attr, span, **options):
            missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
    return missing


def outermost_count(recorder: SpanRecorder, span: str, window) -> int:
    """Spans named ``span`` in ``window`` whose parent is not one too."""
    arrays = recorder.arrays()
    nid = recorder.intern(span)
    names, parent, start = arrays["name_id"], arrays["parent"], arrays["start"]
    inside = (start >= window[0]) & (start < window[1]) & (names == nid)
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
    return int(np.count_nonzero(inside & (parent_name != nid)))


def inclusive_seconds(recorder: SpanRecorder, span: str, window) -> float:
    """Total duration of the spans named ``span`` that start in ``window``."""
    arrays = recorder.arrays()
    start, end = arrays["start"], arrays["end"]
    chosen = (
        (start >= window[0]) & (start < window[1])
        & (arrays["name_id"] == recorder.intern(span))
    )
    return float((end[chosen] - start[chosen]).sum())


def layer_table(
    recorder: SpanRecorder,
    setup_window: Tuple[float, float],
    timed_window: Tuple[float, float],
) -> Tuple[Dict[str, Dict[str, float]], float, float]:
    """Self seconds per layer in set-up and timed phase, plus uncovered.

    Returns ``({span: {"setup": s, "timed": s}}, setup_unattributed,
    timed_unattributed)``; each phase's layer self times plus its
    unattributed seconds add up to the phase's length.
    """
    spans = recorder.arrays()
    setup, setup_rest = layer_totals(spans, recorder.names, setup_window)
    timed, timed_rest = layer_totals(spans, recorder.names, timed_window)
    table = {
        name: {"setup": setup.get(name, 0.0), "timed": timed.get(name, 0.0)}
        for name in recorder.names
    }
    return table, setup_rest, timed_rest


def format_table(
    table: Dict[str, Dict[str, float]],
    setup_rest: float,
    timed_rest: float,
    ops: int,
) -> List[str]:
    """The per-layer table as printable lines."""
    timed_total = sum(row["timed"] for row in table.values()) + timed_rest
    setup_total = sum(row["setup"] for row in table.values()) + setup_rest
    lines = [
        f"{'layer':24s} {'setup s':>9s} {'timed s':>9s} {'ms/op':>9s} {'share':>7s}"
    ]
    rows = sorted(table.items(), key=lambda item: -item[1]["timed"])
    rows.append(("(unattributed)", {"setup": setup_rest, "timed": timed_rest}))
    for name, row in rows:
        share = row["timed"] / timed_total if timed_total > 0 else 0.0
        lines.append(
            f"{name:24s} {row['setup']:9.4f} {row['timed']:9.4f} "
            f"{row['timed'] / max(ops, 1) * 1e3:9.4f} {share:7.2%}"
        )
    lines.append(
        f"{'(phase total)':24s} {setup_total:9.4f} {timed_total:9.4f} "
        f"{timed_total / max(ops, 1) * 1e3:9.4f} {1.0 if timed_total else 0.0:7.2%}"
    )
    return lines


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    timed_rest: float,
    ops: int,
) -> Dict[str, float]:
    """Host-time per-layer metrics: self s/op in the timed phase, or
    self s of one set-up for the set-up layers."""
    per_op = max(ops, 1)
    out = {
        metric: table.get(span, {}).get("timed", 0.0) / per_op
        for span, metric in TIMED_LAYERS
    }
    for span, metric in SETUP_LAYERS:
        out[metric] = table.get(span, {}).get("setup", 0.0)
    out["unattributed_s"] = timed_rest / per_op
    return out
