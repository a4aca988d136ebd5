"""The CI performance gate.

Builds the combined perf scorecard — the reproduction scorecard
(Table-4 speedups + structural claims), the serving scorecard
(throughput-latency curve, cache point, degraded point), the cluster
scorecard (shard scaling, failover tax, hedging), the ingest
scorecard (staleness drift, compaction recovery, write-amplification
interference), the recovery scorecard (crash durability, MTTR,
availability and recall under a scripted chaos day), the index
scorecard (IVF recall/latency frontier per accelerator level, build
cost through the FTL write path, DES-validated operating point), and
the tenancy scorecard (multi-tenant production day: per-tenant
p99/goodput/SLO attainment, autoscaler action log, noisy-neighbor
isolation ratios) — and compares
it leaf by leaf against the checked-in baseline
``benchmarks/results/baseline_scorecard.json``, exactly: every numeric
leaf must compare equal, every other leaf must match.

Every leaf is simulated time or a count, a deterministic function of
the code: drift means the model changed.  If it changed on purpose,
regenerate the baseline with ``--write-baseline`` and commit it; if
not, the gate just caught a regression.

Exit codes: 0 = identical, 1 = drifted (the diff is also written to
``--out`` for CI to upload as an artifact).

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py
    PYTHONPATH=src python benchmarks/perf_gate.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "baseline_scorecard.json"


def build_combined_scorecard() -> Dict[str, object]:
    """All seven scorecards under stable top-level keys."""
    from repro.analysis.scorecard import build_scorecard
    from repro.cluster import build_cluster_scorecard
    from repro.index.scorecard import build_index_scorecard
    from repro.ingest import build_ingest_scorecard
    from repro.recovery.scorecard import build_recovery_scorecard
    from repro.serving.scorecard import build_serving_scorecard
    from repro.tenancy.scorecard import build_tenancy_scorecard

    return {
        "repro": json.loads(build_scorecard().to_json()),
        "serving": build_serving_scorecard(),
        "cluster": build_cluster_scorecard(),
        "ingest": build_ingest_scorecard(),
        "recovery": build_recovery_scorecard(),
        "index": build_index_scorecard(),
        "tenancy": build_tenancy_scorecard(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=BASELINE_PATH,
        help="checked-in baseline scorecard JSON",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=RESULTS_DIR / "perf_gate_diff.json",
        help="where to write the diff artifact",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline instead of gating",
    )
    args = parser.parse_args(argv)

    from repro.serving.scorecard import compare_scorecards, flatten

    current = build_combined_scorecard()
    if args.write_baseline:
        args.baseline.parent.mkdir(exist_ok=True)
        args.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written: {args.baseline} "
              f"({len(flatten(current))} leaves)")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found; run with "
              f"--write-baseline first", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    drifts = compare_scorecards(baseline, current)

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({
        "leaves_checked": len(flatten(baseline)),
        "drift_count": len(drifts),
        "drifts": [d.to_dict() for d in drifts],
    }, indent=2, sort_keys=True) + "\n")

    checked = len(flatten(baseline))
    if not drifts:
        print(f"perf gate OK: {checked} leaves identical to baseline")
        return 0
    print(f"perf gate FAILED: {len(drifts)} of {checked} leaves drifted "
          f"from baseline (diff: {args.out})", file=sys.stderr)
    for d in drifts[:20]:
        ratio = f"{d.ratio:.3f}x" if d.ratio is not None else "-"
        print(f"  {d.status:10s} {d.key}: "
              f"baseline={d.baseline!r} current={d.current!r} ({ratio})",
              file=sys.stderr)
    if len(drifts) > 20:
        print(f"  ... and {len(drifts) - 20} more", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
