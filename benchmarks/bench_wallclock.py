#!/usr/bin/env python
"""Wall-clock scorecard: how long every extension bench leg takes.

The perf gate (``perf_gate.py``) pins *simulated* results; this
harness pins *host* time.  It runs each ``bench_ext_*`` leg in-process
at 1x and 10x workload sizes, times it, and emits
``results/wallclock_scorecard.json``.  The CI ``timing-gate`` job
diffs that against the checked-in ``results/baseline_wallclock.json``
and fails when a leg regresses by more than the tolerance (default
1.5x).

Raw seconds do not transfer between machines, so the gate compares
**normalized** times: every leg is divided by a fixed synthetic
calibration workload (event-heap churn + small matmuls, the two
things the simulator actually does) measured on the same host in the
same run.  A leg is regressed when::

    new.seconds / new.calibration > tolerance * (old.seconds / old.calibration)

``--write-baseline`` regenerates the baseline after an intentional
change.

Usage::

    python benchmarks/bench_wallclock.py                  # score + gate
    python benchmarks/bench_wallclock.py --write-baseline
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.sim import fastpath  # noqa: E402

RESULTS_DIR = BENCH_DIR / "results"
SCORECARD_PATH = RESULTS_DIR / "wallclock_scorecard.json"
BASELINE_PATH = RESULTS_DIR / "baseline_wallclock.json"

#: per-leg regression tolerance on normalized time
DEFAULT_TOLERANCE = 1.5

#: workload scales every leg is timed at
DEFAULT_SCALES = (1, 10)


def _leg_runners() -> Dict[str, Callable[[int], object]]:
    """Name -> callable(scale) for every extension bench leg.

    Imports are deferred so ``--legs`` can skip a leg whose module
    fails to import on an exotic platform.
    """
    import bench_ext_cluster
    import bench_ext_ingest
    import bench_ext_obs
    import bench_ext_recovery
    import bench_ext_serving

    return {
        "serving": bench_ext_serving.run_variants,
        "cluster_scaling": bench_ext_cluster.run_scaling,
        "cluster_degraded": bench_ext_cluster.run_degraded,
        "ingest": bench_ext_ingest.run_loop,
        "recovery": bench_ext_recovery.run_day,
        "obs": bench_ext_obs.run_traced_day,
    }


def calibration_seconds(rounds: int = 3) -> float:
    """A fixed synthetic workload; the machine-speed yardstick.

    Event-heap churn plus small float64 matmuls — the same kinds of
    work the simulator's hot loops do — sized to take a few hundred
    milliseconds on a current core.  The minimum over ``rounds`` runs
    screens out scheduler noise.
    """
    best = float("inf")
    x = np.random.default_rng(0).normal(0.0, 1.0, (256, 64))
    for _ in range(rounds):
        t0 = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        for i in range(120_000):
            heapq.heappush(heap, ((i * 2654435761) % 1000003, i))
        while heap:
            heapq.heappop(heap)
        acc = 0.0
        for _ in range(400):
            acc += float((x @ x.T).trace())
        best = min(best, time.perf_counter() - t0)
    return best


def time_leg(runner: Callable[[int], object], scale: int) -> float:
    """One timed run of a leg (memo tables cleared first)."""
    fastpath.clear_tables()
    t0 = time.perf_counter()
    runner(scale)
    return time.perf_counter() - t0


def build_scorecard(
    scales: Tuple[int, ...] = DEFAULT_SCALES,
    legs: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Time every leg at every scale."""
    runners = _leg_runners()
    if legs:
        unknown = sorted(set(legs) - set(runners))
        if unknown:
            raise SystemExit(f"unknown legs: {', '.join(unknown)}")
        runners = {name: runners[name] for name in legs}
    # one unmeasured 1x pass per leg: the first run of a subsystem pays
    # lazy imports and allocator warmup that would otherwise be charged
    # to whichever timed leg happens to go first
    for runner in runners.values():
        runner(1)
    calibration = calibration_seconds()
    card: Dict[str, object] = {
        "calibration_seconds": calibration,
        "legs": {},
    }
    for name, runner in runners.items():
        for scale in scales:
            key = f"{name}@{scale}x"
            seconds = time_leg(runner, scale)
            card["legs"][key] = {  # type: ignore[index]
                "seconds": seconds,
                "normalized": seconds / calibration,
            }
            print(f"  {key:24s} {seconds:8.3f}s", flush=True)
    return card


def gate(
    card: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressed-leg messages (empty when the gate passes).

    Legs present only on one side are ignored (adding a leg must not
    fail the gate until the baseline is regenerated).
    """
    failures: List[str] = []
    new_legs: Dict[str, Dict[str, float]] = card["legs"]  # type: ignore[assignment]
    old_legs: Dict[str, Dict[str, float]] = baseline["legs"]  # type: ignore[assignment]
    for key in sorted(set(new_legs) & set(old_legs)):
        new_norm = new_legs[key]["normalized"]
        old_norm = old_legs[key]["normalized"]
        if old_norm > 0 and new_norm > tolerance * old_norm:
            failures.append(
                f"{key}: normalized {new_norm:.2f} vs baseline "
                f"{old_norm:.2f} (> {tolerance:.2f}x)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", default=",".join(str(s) for s in DEFAULT_SCALES),
        help="comma-separated workload scales (default: 1,10)",
    )
    parser.add_argument(
        "--legs", default=None,
        help="comma-separated leg subset (default: all)",
    )
    parser.add_argument(
        "--out", type=Path, default=SCORECARD_PATH,
        help="scorecard output path",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help="baseline to gate against",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="per-leg normalized-time regression tolerance",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the measured scorecard as the new baseline",
    )
    args = parser.parse_args(argv)

    scales = tuple(int(s) for s in args.scales.split(",") if s)
    legs = args.legs.split(",") if args.legs else None
    print("timing legs:")
    card = build_scorecard(scales=scales, legs=legs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(card, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(card, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.baseline}")
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --write-baseline",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(args.baseline.read_text())
    failures = gate(card, baseline, tolerance=args.tolerance)
    if failures:
        print("TIMING GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"timing gate passed ({len(set(card['legs']) & set(baseline['legs']))}"
        f" legs within {args.tolerance:.2f}x of baseline)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
