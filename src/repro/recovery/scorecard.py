"""The recovery/chaos scorecard (the CI perf gate's fifth leg).

Same philosophy as the other four legs: every number is a deterministic
function of config + seed, so any drift is a code change.  Two canonical
scenarios, both played by :mod:`repro.chaos.harness`:

* **durability** — a crash-restart storm over the durable store:
  measured MTTR (checkpoint read + WAL replay + apply), WAL write
  amplification through the real FTL, checkpoint count, and the two
  hard invariants as gate leaves (``durability`` and ``bit_equal`` must
  stay exactly 1);
* **availability** — correlated replica kills over the hardened
  cluster: availability, recall vs a healthy twin, MTTR including the
  priced WAL resync, retry-pause tax, breaker and brownout activity.

The perf-gate leg registry, ``repro.analysis.scorecard.scorecard_legs()``,
lists this builder as the ``recovery`` leg; the gate diffs it leaf by
leaf against the checked-in baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.chaos.harness import (
    ChaosConfig,
    run_cluster_chaos,
    run_durability_chaos,
)

SCORECARD_SEED = 7


def build_recovery_scorecard(seed: int = SCORECARD_SEED) -> Dict[str, object]:
    """Run the canonical chaos scenarios; return the perf scorecard."""
    config = ChaosConfig(seed=seed)
    durability = run_durability_chaos(config)
    cluster = run_cluster_chaos(config)
    return {
        "seed": seed,
        "durability": durability.to_dict(),
        "availability": cluster.to_dict(),
    }
