"""Multi-query scan sharing and degraded-mode scan planning.

The paper evaluates one query at a time; its query engine, however,
naturally admits an extension the flash layout makes attractive: when
several intelligent queries are pending against the same database, one
pass over the feature vectors can score *all* of them — each DFV read
from flash is compared against every outstanding QFV before being
discarded.  I/O-bound scans then serve extra queries almost for free
until the accelerators become compute-bound.

:class:`MultiQueryScheduler` models this: per-feature compute scales with
the number of co-scheduled queries while the flash feed and any
non-resident weight stream are paid once, and the crossover ("free"
concurrency) falls out of the same steady-state max() as everything else.

The second half of this module is the engine's **degraded-mode scan
planner**: when dispatch timeouts declare an accelerator dead
(:class:`~repro.core.engine.DispatchPolicy`), its slice of the database
is remapped onto the survivors so the query still returns the exact
same top-K — slower, never wrong.  :func:`plan_degraded_scan` does the
range arithmetic and :func:`degraded_topk` is the functional reduce the
correctness tests check against a healthy scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.deepstore import DeepStoreSystem
from repro.core.topk import topk_select
from repro.nn.graph import Graph
from repro.ssd.ftl import DatabaseMetadata
from repro.workloads.apps import AppSpec


@dataclass
class SharedScanReport:
    """Cost of scanning once for ``n_queries`` concurrent queries."""

    app: str
    level: str
    n_queries: int
    scan_seconds: float
    single_query_seconds: float

    @property
    def batch_speedup(self) -> float:
        """Speedup over running the queries back-to-back."""
        return self.n_queries * self.single_query_seconds / self.scan_seconds


class MultiQueryScheduler:
    """Scan sharing on top of a :class:`DeepStoreSystem`."""

    def __init__(self, system: Optional[DeepStoreSystem] = None):
        self.system = system or DeepStoreSystem.at_level("channel")

    def shared_scan(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        n_queries: int,
        graph: Optional[Graph] = None,
    ) -> SharedScanReport:
        """Latency of one shared scan serving ``n_queries`` queries."""
        if n_queries <= 0:
            raise ValueError("n_queries must be positive")
        graph = graph or app.build_scn()
        system = self.system
        accel = system.accelerator_for(graph)
        geo = system.ssd.geometry
        count = system.placement.count(system.ssd)
        stripe = meta.feature_count / count

        io_spf = system.io_seconds_per_feature(meta)
        bus_spf = system.bus_weight_seconds_per_feature(graph, app.feature_bytes)
        profile = accel.profile
        # compute scales per query; weight streaming is paid once per
        # feature regardless of how many queries consume it
        compute_1 = profile.compute_seconds_per_feature \
            + accel.topk_seconds_per_feature(int(max(1, stripe)))
        stream_spf = sum(
            layer.stream_seconds_per_feature for layer in profile.layers
        )

        def per_feature(n: int) -> float:
            if system.placement.level == "chip":
                chips = geo.chips_per_channel
                return max(io_spf + bus_spf, n * compute_1 / chips, stream_spf)
            return max(io_spf, n * compute_1, stream_spf)

        def scan_seconds(n: int) -> float:
            if system.placement.level == "ssd":
                base = meta.feature_count * per_feature(n)
            elif system.placement.level == "chip":
                base = (meta.feature_count / geo.channels) * per_feature(n)
            else:
                base = stripe * per_feature(n)
            overhead = system.engine.dispatch_seconds(count) + n * (
                system.engine.merge_seconds(count, system.k)
            )
            return base + overhead + accel.query_setup_seconds()

        return SharedScanReport(
            app=app.name,
            level=system.placement.level,
            n_queries=n_queries,
            scan_seconds=scan_seconds(n_queries),
            single_query_seconds=scan_seconds(1),
        )

    def free_concurrency(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        graph: Optional[Graph] = None,
        tolerance: float = 1.05,
        max_queries: int = 4096,
    ) -> int:
        """Largest query batch whose shared scan stays within
        ``tolerance`` of a single query's scan time — the concurrency the
        flash bottleneck hands out for free."""
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1.0")
        graph = graph or app.build_scn()
        single = self.shared_scan(app, meta, 1, graph=graph).scan_seconds
        best = 1
        n = 1
        while n <= max_queries:
            report = self.shared_scan(app, meta, n, graph=graph)
            if report.scan_seconds <= single * tolerance:
                best = n
                n *= 2
            else:
                break
        # binary refine between best and n
        low, high = best, min(n, max_queries)
        while low + 1 < high:
            mid = (low + high) // 2
            report = self.shared_scan(app, meta, mid, graph=graph)
            if report.scan_seconds <= single * tolerance:
                low = mid
            else:
                high = mid
        return low


# ----------------------------------------------------------------------
# degraded-mode scan planning
# ----------------------------------------------------------------------
def partition_feature_ranges(
    n_features: int, n_accels: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` feature ranges, one per accelerator.

    Mirrors the engine's healthy map step: the database splits into
    ``n_accels`` nearly equal stripes (the first ``n % accels`` stripes
    take one extra feature).  Ranges cover ``[0, n_features)`` exactly.
    """
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    if n_accels <= 0:
        raise ValueError("n_accels must be positive")
    base, extra = divmod(n_features, n_accels)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_accels):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass
class DegradedScanPlan:
    """Work assignment after remapping failed accelerators' stripes.

    ``assignments`` maps each *surviving* accelerator index to the list
    of feature ranges it scans: its own stripe first, then any adopted
    ranges.  The union of all assigned ranges is exactly the healthy
    partition, which is what makes degraded top-K results identical to
    healthy ones.
    """

    n_features: int
    n_accels: int
    failed: Tuple[int, ...]
    assignments: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    @property
    def survivors(self) -> List[int]:
        """Surviving accelerator indices, ascending."""
        return sorted(self.assignments)

    @property
    def max_load(self) -> int:
        """Features scanned by the most-loaded survivor."""
        return max(
            sum(end - start for start, end in ranges)
            for ranges in self.assignments.values()
        )

    @property
    def load_factor(self) -> float:
        """Slowest survivor's load relative to a healthy stripe.

        The scan finishes when the most-loaded survivor finishes, so
        degraded scan time is (to first order) healthy scan time times
        this factor.  1.0 with no failures.
        """
        healthy_stripe = self.n_features / self.n_accels
        return self.max_load / healthy_stripe if healthy_stripe else 1.0


def plan_degraded_scan(
    n_features: int, n_accels: int, failed: Iterable[int]
) -> DegradedScanPlan:
    """Remap failed accelerators' stripes round-robin onto survivors.

    Raises ``ValueError`` when every accelerator failed — there is no
    degraded mode without at least one survivor (the host fallback is a
    different system's job).
    """
    failed_set = set(failed)
    for index in failed_set:
        if not 0 <= index < n_accels:
            raise ValueError(f"failed index {index} out of range 0..{n_accels - 1}")
    survivors = [i for i in range(n_accels) if i not in failed_set]
    if not survivors:
        raise ValueError("all accelerators failed; no degraded mode possible")
    ranges = partition_feature_ranges(n_features, n_accels)
    assignments: Dict[int, List[Tuple[int, int]]] = {
        i: [ranges[i]] for i in survivors
    }
    for j, dead in enumerate(sorted(failed_set)):
        adopter = survivors[j % len(survivors)]
        assignments[adopter].append(ranges[dead])
    return DegradedScanPlan(
        n_features=n_features,
        n_accels=n_accels,
        failed=tuple(sorted(failed_set)),
        assignments=assignments,
    )


def degraded_topk(
    scores: np.ndarray, plan: DegradedScanPlan, k: int
) -> List[Tuple[float, int]]:
    """Functional degraded reduce: per-survivor partial top-K, merged.

    Each survivor scans its assigned ranges and keeps a local top-K;
    the engine merges the partials (the canonical tie-break of
    :func:`~repro.core.topk.topk_select`, so results are bit-identical
    to a healthy scan over the whole score array).
    """
    if k <= 0:
        raise ValueError("K must be positive")
    scores = np.asarray(scores)
    # every survivor's partial top-K, concatenated
    partials: List[Tuple[float, int]] = []
    for accel in plan.survivors:
        local: List[Tuple[float, int]] = []
        for start, end in plan.assignments[accel]:
            window = scores[start:end]
            if window.size == 0:
                continue
            take = min(k, window.size)
            # lexsort by (score desc, index asc): ties must resolve the
            # same way topk_select does, or a remapped range could keep a
            # different tied candidate than the healthy scan would
            top = np.lexsort((np.arange(window.size), -window))[:take]
            local.extend(
                (float(window[i]), int(start + i)) for i in top
            )
        partials.extend(topk_select(local, k))
    return topk_select(partials, k)
