"""The tenancy scorecard (the CI perf gate's seventh leg).

Same philosophy as the other six legs: every number is a deterministic
function of config + seed, so any drift is a code change.  One
canonical scenario — the default three-tenant
:func:`~repro.tenancy.day.run_production_day` (24h diurnal trace,
search-tenant flash crowd, scripted shard failure, skewed live ingest)
— emitting per-tenant p99/goodput/SLO-attainment rows, the autoscaler
action log summary, the rebalance tally, and the paired noisy-neighbor
isolation ratios.

The perf-gate leg registry, ``repro.analysis.scorecard.scorecard_legs()``,
lists this builder as the ``tenancy`` leg; the gate diffs it leaf by
leaf against the checked-in baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.tenancy.day import default_production_config, run_production_day

SCORECARD_SEED = 7


def build_tenancy_scorecard(seed: int = SCORECARD_SEED) -> Dict[str, object]:
    """Run the canonical production day; return the perf scorecard."""
    config = default_production_config(seed=seed)
    report = run_production_day(config)
    out = report.as_dict()
    out["seed"] = seed
    return out
