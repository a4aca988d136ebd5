"""The ingest leg of the CI perf gate.

:func:`build_ingest_scorecard` runs the deterministic lifecycle loop at
a fixed, fast configuration and flattens the result into the same
nested-dict shape the other scorecard legs use.  The perf-gate leg
registry, ``repro.analysis.scorecard.scorecard_legs()``, lists it as
the ``ingest`` leg; the gate diffs it exactly against the committed
baseline.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ingest.lifecycle import LifecycleConfig, run_lifecycle


#: the gate configuration: small enough for CI, big enough that the
#: staleness and interference signals are well away from noise
GATE_CONFIG = LifecycleConfig(
    app="textqa",
    n_base=1024,
    rounds=3,
    planted_per_round=64,
    random_per_round=48,
    deletes_per_round=24,
    updates_per_round=6,
    probe_queries=6,
    k=10,
    n_clusters=12,
    n_probe=3,
    seed=7,
)


def build_ingest_scorecard(
    config: Optional[LifecycleConfig] = None,
) -> Dict[str, object]:
    """Run the lifecycle loop and emit the perf-gate leg."""
    report = run_lifecycle(config or GATE_CONFIG)
    card = report.as_dict()
    card["meta"] = {
        "app": (config or GATE_CONFIG).app,
        "n_base": (config or GATE_CONFIG).n_base,
        "rounds": (config or GATE_CONFIG).rounds,
        "seed": (config or GATE_CONFIG).seed,
    }
    return card
