"""The serving performance scorecard and the CI perf gate's comparator.

Because every number the simulator produces is a deterministic function
of config + seed, performance regressions are *code* regressions: if a
refactor changes the achieved QPS at 0.75x saturation by 30%, either
the model changed on purpose (update the baseline) or something broke.
:func:`build_serving_scorecard` runs a small canonical scenario matrix
— a load sweep, a cache-fronted point, a degraded-mode point — and
returns a nested JSON-ready dict; :func:`compare_scorecards` diffs two
such dicts leaf by leaf, exactly, which is what
``benchmarks/perf_gate.py`` gates CI on against the checked-in
``benchmarks/results/baseline_scorecard.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.serving.arrivals import poisson_arrivals
from repro.serving.server import QueryServer, ServingConfig
from repro.serving.sweep import sweep_offered_load
from repro.workloads.queries import QueryStream

#: canonical scenario: small enough for CI seconds, large enough that
#: batching and queueing dynamics are visible
SCORECARD_APP = "tir"
SCORECARD_FEATURES = 400_000
SCORECARD_QUERIES = 240
SCORECARD_SEED = 7
SCORECARD_FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.5)


def build_serving_scorecard(
    app: str = SCORECARD_APP,
    features: int = SCORECARD_FEATURES,
    n_queries: int = SCORECARD_QUERIES,
    seed: int = SCORECARD_SEED,
) -> Dict[str, object]:
    """Run the canonical serving scenarios; return the perf scorecard.

    Everything in the result is simulated time or counts — no wall
    clock — so re-running with the same arguments is bit-identical.
    """
    config = ServingConfig(
        app=app, features=features, queue_bound=32, max_batch=8
    )
    curve = sweep_offered_load(
        config,
        n_queries=n_queries,
        seed=seed,
        load_fractions=SCORECARD_FRACTIONS,
    )
    points = [
        {
            "load_fraction": frac,
            "offered_qps": p.offered_qps,
            "achieved_qps": p.achieved_qps,
            "goodput": p.goodput_fraction,
            "shed_rate": p.shed_rate,
            "p50_ms": p.p50_s * 1e3,
            "p99_ms": p.p99_s * 1e3,
            "mean_batch": p.mean_batch,
            "utilization": p.utilization,
        }
        for frac, p in zip(SCORECARD_FRACTIONS, curve.points)
    ]

    # cache-fronted point at the knee: a Zipf stream with semantic
    # locality, so the hit path's queue bypass shows up as capacity
    cached_config = ServingConfig(
        app=app, features=features, queue_bound=32, max_batch=8,
        cache_entries=256, cache_threshold=0.10,
    )
    stream = QueryStream(
        dim=64, n_intents=40, distribution="zipf", alpha=0.8,
        paraphrase_noise=0.05, seed=seed,
    )
    cached_server = QueryServer(cached_config)
    cached = cached_server.run(
        poisson_arrivals(
            n_queries,
            curve.saturation_qps,
            seed=seed,
            stream=stream,
            compat=app,
        )
    )

    # degraded-mode point: two dead channel accelerators, remapped
    degraded_config = ServingConfig(
        app=app, features=features, queue_bound=32, max_batch=8,
        failed_accels=(0, 1),
    )
    degraded_server = QueryServer(degraded_config)
    degraded = degraded_server.run(
        poisson_arrivals(
            n_queries, curve.saturation_qps * 0.5, seed=seed, compat=app
        )
    )

    return {
        "app": app,
        "features": features,
        "queries": n_queries,
        "seed": seed,
        "saturation_qps": curve.saturation_qps,
        "points": points,
        "cached": {
            "hit_rate": cached.hit_rate,
            "achieved_qps": cached.achieved_qps,
            "p50_ms": cached.p50_s * 1e3,
            "p99_ms": cached.p99_s * 1e3,
            "shed_rate": cached.shed_rate,
        },
        "degraded": {
            "failed_accels": len(degraded_config.failed_accels),
            "achieved_qps": degraded.achieved_qps,
            "p99_ms": degraded.p99_s * 1e3,
            "load_factor": degraded_server.cost.load_factor,
        },
    }


def serving_metrics_snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """The ``serving.*`` slice of a metrics snapshot (for --json)."""
    return {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("serving.")
    }


# ----------------------------------------------------------------------
# the perf-gate comparator
# ----------------------------------------------------------------------
Leaf = Union[int, float, bool, str, None]


@dataclass(frozen=True)
class Drift:
    """One leaf that differs from the baseline (or went missing)."""

    key: str
    baseline: Leaf
    current: Leaf
    status: str  # "regressed" | "missing" | "unexpected" | "changed"

    @property
    def ratio(self) -> Optional[float]:
        if (
            isinstance(self.baseline, (int, float))
            and isinstance(self.current, (int, float))
            and not isinstance(self.baseline, bool)
            and self.baseline != 0
        ):
            return self.current / self.baseline
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record for the diff artifact."""
        return {
            "key": self.key,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "status": self.status,
        }


def flatten(value: object, prefix: str = "") -> Dict[str, Leaf]:
    """Nested dicts/lists -> dotted-key scalar leaves."""
    out: Dict[str, Leaf] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            out.update(flatten(value[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix] = value  # type: ignore[assignment]
    return out


def compare_scorecards(
    baseline: Dict[str, object],
    current: Dict[str, object],
) -> List[Drift]:
    """Exact leaf-by-leaf diff of two scorecards.

    Every leaf is a deterministic function of the code, so any change
    is drift: finite numeric leaves must compare ``==`` (a one-ulp move
    is ``regressed``), non-finite ones must match by ``repr``,
    non-numeric leaves must be equal (else ``changed``), and keys must
    be identical in both directions.  Returns the drifted leaves, worst
    first.
    """
    base_flat = flatten(baseline)
    cur_flat = flatten(current)
    drifts: List[Drift] = []
    for key in sorted(base_flat):
        if key not in cur_flat:
            drifts.append(Drift(key, base_flat[key], None, "missing"))
            continue
        b, c = base_flat[key], cur_flat[key]
        numeric = (
            isinstance(b, (int, float)) and not isinstance(b, bool)
            and isinstance(c, (int, float)) and not isinstance(c, bool)
        )
        if numeric:
            assert isinstance(b, (int, float)) and isinstance(c, (int, float))
            if math.isfinite(b) and math.isfinite(c):
                drifted = b != c
            else:  # nan != nan: compare non-finite leaves by spelling
                drifted = repr(b) != repr(c)
            if drifted:
                drifts.append(Drift(key, b, c, "regressed"))
        elif b != c:
            drifts.append(Drift(key, b, c, "changed"))
    for key in sorted(cur_flat):
        if key not in base_flat:
            drifts.append(Drift(key, None, cur_flat[key], "unexpected"))

    def severity(d: Drift) -> Tuple[int, float, str]:
        ratio = d.ratio
        spread = abs(math.log(ratio)) if ratio and ratio > 0 else math.inf
        order = {"regressed": 0, "changed": 1, "missing": 2, "unexpected": 3}
        return (order[d.status], -spread, d.key)

    return sorted(drifts, key=severity)
