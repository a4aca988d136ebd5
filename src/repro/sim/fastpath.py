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
  ``(app, seed)`` model once.

Everything here is a *caching* change only: cached values are the
same float objects an uncached computation would produce, so every
scorecard leaf is byte-identical to the checked-in baseline
(``tests/test_perf_gate.py`` enforces exactly that).
"""

from __future__ import annotations

import weakref
from math import ceil, log, log2
from typing import TYPE_CHECKING, Any, Dict, Hashable, Tuple

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

#: cache-effectiveness counters (surfaced by ``repro profile --hotspots``)
stats = {
    "profile_hits": 0,
    "profile_misses": 0,
    "topk_hits": 0,
    "graph_hits": 0,
    "graph_misses": 0,
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


def clear_tables() -> None:
    """Drop every memoized table (tests; never needed in production)."""
    _profiles.clear()
    _topk_cycles.clear()
    _scn_graphs.clear()
    for key in stats:
        stats[key] = 0
