"""Simulator-core precomputed tables.

The discrete-event hot loops — event heap dispatch, per-event scan
costing, trace enumeration — are pure python; at bench scale they
dominate wall-clock.  The kernel vectorizes them where it can
(tuple-backed event heap in :class:`~repro.sim.engine.Simulator`,
numpy-bulk scan traces in :mod:`repro.ssd.trace`); this module holds
the memoized tables the call sites share:

* **cycle tables**: accelerator graph profiles (per-layer systolic
  cycles) and top-K maintenance costs are pure functions of hashable
  configuration, otherwise recomputed once per accelerator instance —
  which serving sweeps and cluster fleets construct per query leg.
  :func:`profile_table` / :func:`expected_topk_cycles` memoize them so
  the N-th identical construction costs a dict lookup;
* **shared SCN graphs**: :func:`scn_graph` builds each deterministic
  ``(app, seed)`` model once;
* **full-scan top-Ks**: scoring is a pure function of the model, the
  query and the stored rows, so :func:`scan_topk` scores each
  ``(graph, query, rows)`` once per process and every device holding
  the same rows (a hedge backup, a twin cluster) reuses the answer.

Everything here is a *caching* change only: cached values equal what
an uncached computation would produce, so every scorecard leaf is
byte-identical to the checked-in baseline
(``tests/test_perf_gate.py`` enforces exactly that).
"""

from __future__ import annotations

import hashlib
import weakref
from math import ceil, log, log2
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.graph import Graph
    from repro.systolic import GraphProfile


# ----------------------------------------------------------------------
# precomputed per-layer cycle tables
# ----------------------------------------------------------------------
#: graph -> {config key -> GraphProfile}; weak on the graph so cached
#: profiles die with the model instead of pinning it forever
_profiles: "weakref.WeakKeyDictionary[Any, Dict[Hashable, Any]]" = (
    weakref.WeakKeyDictionary()
)

#: (k, n_candidates) -> analytic mean top-K cycles per update
_topk_cycles: Dict[Tuple[int, int], float] = {}

#: (app name, seed) -> built-and-initialized SCN graph
_scn_graphs: Dict[Tuple[str, int], Any] = {}

#: (graph ref, qfv digest, rows key) -> full-scan ``(ids, scores)``,
#: oldest first; at most :data:`SCAN_MEMO_ENTRIES` of them
_scans: Dict[Tuple[Any, ...], Tuple[np.ndarray, np.ndarray]] = {}
SCAN_MEMO_ENTRIES = 4096

#: graph -> the parameter arrays its memoized scans were scored with
_scan_weights: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: cache-effectiveness counters (surfaced by ``repro profile --hotspots``)
stats = {
    "profile_hits": 0,
    "profile_misses": 0,
    "topk_hits": 0,
    "graph_hits": 0,
    "graph_misses": 0,
    "scan_hits": 0,
    "scan_misses": 0,
}


def profile_table(graph: "Graph", key: Hashable, build) -> "GraphProfile":
    """Memoized per-layer cycle profile for ``graph`` under ``key``.

    ``key`` must capture everything besides the graph that determines
    the mapping (placement, SSD config, precision, stream window);
    ``build`` computes the profile on a miss.  The returned object is
    the *same* one every time, so downstream float arithmetic is
    byte-identical to recomputing it.
    """
    per_graph = _profiles.get(graph)
    if per_graph is None:
        per_graph = {}
        _profiles[graph] = per_graph
    profile = per_graph.get(key)
    if profile is None:
        stats["profile_misses"] += 1
        profile = build()
        per_graph[key] = profile
    else:
        stats["profile_hits"] += 1
    return profile


def expected_topk_cycles(k: int, n_candidates: int) -> float:
    """Memoized :meth:`TopKSorter.expected_cycles_per_update`.

    Same closed form, computed once per ``(k, n)`` — the serving and
    cluster sweeps evaluate it for the same stripe sizes millions of
    times.
    """
    if n_candidates <= 0:
        raise ValueError("n_candidates must be positive")
    cached = _topk_cycles.get((k, n_candidates))
    if cached is not None:
        stats["topk_hits"] += 1
        return cached
    expected_inserts = k * (1 + log(max(1.0, n_candidates / k)))
    insert_cost = ceil(log2(k)) + k / 2
    value = 1.0 + min(1.0, expected_inserts / n_candidates) * insert_cost
    _topk_cycles[(k, n_candidates)] = value
    return value


def scn_graph(app: Any, seed: int = 0) -> "Graph":
    """Shared deterministic SCN build for ``(app.name, seed)``.

    ``AppSpec.build_scn`` initializes weights from the seed alone, so
    every build of the same app/seed is identical — and the cost-model
    call sites (serving sweeps, cluster fleets) treat the graph as
    read-only.  Sharing one instance both skips the rebuild and keys
    :func:`profile_table` on the same object, so downstream profiles
    memoize across server constructions.
    """
    key = (app.name, seed)
    graph = _scn_graphs.get(key)
    if graph is None:
        stats["graph_misses"] += 1
        graph = app.build_scn(seed=seed)
        _scn_graphs[key] = graph
    else:
        stats["graph_hits"] += 1
    return graph


def scan_topk(
    graph: "Graph",
    qfv: np.ndarray,
    rows: Hashable,
    scan: Callable[[], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized full-scan top-K ``(ids, scores)`` of ``graph`` for ``qfv``.

    ``rows`` must capture everything else the answer depends on: a
    content digest of the scanned rows, their range, K and the scan's
    chunking.  ``scan`` computes the answer on a miss.  The graph is
    keyed weakly, by identity, and its entries hold only while
    ``graph.params`` keeps the arrays of its first scan: re-training
    replaces them and drops the graph's scans, and the arrays are made
    read-only so an in-place write raises instead of leaving stale
    answers.  Callers always get copies.
    """
    ref = weakref.ref(graph)
    weights = [a for params in graph.params.values() for a in params.values()]
    # the held arrays are alive, so equal ids mean the same arrays
    if list(map(id, _scan_weights.get(graph, ()))) != list(map(id, weights)):
        for key in [key for key in _scans if key[0] == ref]:
            del _scans[key]
        for array in weights:
            array.flags.writeable = False
        _scan_weights[graph] = weights
    key = (ref, hashlib.sha256(np.ascontiguousarray(qfv)).digest(), rows)
    hit = _scans.get(key)
    stats["scan_misses" if hit is None else "scan_hits"] += 1
    if hit is None:
        hit = _scans[key] = scan()
        if len(_scans) > SCAN_MEMO_ENTRIES:
            del _scans[next(iter(_scans))]
    return hit[0].copy(), hit[1].copy()


def clear_tables() -> None:
    """Drop every memoized table (tests; never needed in production)."""
    _profiles.clear()
    _topk_cycles.clear()
    _scn_graphs.clear()
    _scans.clear()
    _scan_weights.clear()
    for key in stats:
        stats[key] = 0
