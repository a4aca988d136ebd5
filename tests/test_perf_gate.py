"""The one baseline check: the combined scorecard equals the baseline.

Builds the *entire* combined perf-gate scorecard — the reproduction,
serving, cluster, ingest, recovery, index and tenancy legs — once, and
requires every leaf to equal the checked-in
``benchmarks/results/baseline_scorecard.json`` exactly.  A failure
lists the drifted leaves by dotted key.
"""

import json
import sys
from pathlib import Path

from repro.serving.scorecard import compare_scorecards

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import perf_gate  # noqa: E402


def test_combined_scorecard_matches_baseline_exactly():
    baseline = json.loads(perf_gate.BASELINE_PATH.read_text())
    card = perf_gate.build_combined_scorecard()
    assert compare_scorecards(baseline, card) == []
