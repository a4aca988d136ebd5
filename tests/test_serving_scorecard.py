"""Perf-gate comparator tests: flatten, exact comparison, drift detection."""

import copy
import math

import pytest

from repro.serving import Drift, compare_scorecards, flatten


SAMPLE = {
    "saturation_qps": 25.0,
    "points": [
        {"offered_qps": 6.25, "p99_ms": 40.0},
        {"offered_qps": 12.5, "p99_ms": 55.0},
    ],
    "app": "tir",
    "counts": {"queries": 240},
}


class TestFlatten:
    def test_dotted_keys_and_indices(self):
        flat = flatten(SAMPLE)
        assert flat["saturation_qps"] == 25.0
        assert flat["points[0].offered_qps"] == 6.25
        assert flat["points[1].p99_ms"] == 55.0
        assert flat["app"] == "tir"
        assert flat["counts.queries"] == 240

    def test_only_scalar_leaves(self):
        for value in flatten(SAMPLE).values():
            assert not isinstance(value, (dict, list, tuple))

    def test_scalar_roundtrip(self):
        assert flatten(3.5, "x") == {"x": 3.5}


class TestCompare:
    def test_identical_passes(self):
        assert compare_scorecards(SAMPLE, copy.deepcopy(SAMPLE)) == []

    def _single_regression(self, base, current, key):
        drifts = compare_scorecards(base, current)
        assert [(d.key, d.status) for d in drifts] == [(key, "regressed")]
        return drifts[0]

    def test_nine_percent_change_regresses(self):
        current = copy.deepcopy(SAMPLE)
        current["saturation_qps"] = 25.0 * 1.09   # inside the old +/-10%
        drift = self._single_regression(SAMPLE, current, "saturation_qps")
        assert drift.ratio == pytest.approx(1.09)

    def test_beyond_tolerance_fails(self):
        current = copy.deepcopy(SAMPLE)
        current["saturation_qps"] = 25.0 * 1.2
        drift = self._single_regression(SAMPLE, current, "saturation_qps")
        assert drift.ratio == pytest.approx(1.2)

    def test_one_ulp_change_regresses(self):
        current = copy.deepcopy(SAMPLE)
        current["points"][0]["p99_ms"] = math.nextafter(40.0, math.inf)
        self._single_regression(SAMPLE, current, "points[0].p99_ms")

    def test_zero_to_tiny_regresses(self):
        # no absolute floor shields near-zero leaves any more
        self._single_regression(
            {"shed_rate": 0.0}, {"shed_rate": 1e-12}, "shed_rate"
        )

    def test_non_finite_leaves_compare_by_spelling(self):
        nan = float("nan")
        assert compare_scorecards({"x": nan}, {"x": nan}) == []
        self._single_regression({"x": math.inf}, {"x": nan}, "x")

    def test_nested_leaf_drift_detected(self):
        current = copy.deepcopy(SAMPLE)
        current["points"][1]["p99_ms"] = 55.0 * 0.8   # -20%
        drifts = compare_scorecards(SAMPLE, current)
        assert [d.key for d in drifts] == ["points[1].p99_ms"]

    def test_non_numeric_must_match_exactly(self):
        current = copy.deepcopy(SAMPLE)
        current["app"] = "reid"
        drifts = compare_scorecards(SAMPLE, current)
        assert drifts[0].status == "changed"

    def test_missing_and_unexpected_keys(self):
        current = copy.deepcopy(SAMPLE)
        del current["counts"]
        current["extra"] = 1
        statuses = {d.key: d.status for d in
                    compare_scorecards(SAMPLE, current)}
        assert statuses["counts.queries"] == "missing"
        assert statuses["extra"] == "unexpected"

    def test_worst_drift_sorts_first(self):
        current = copy.deepcopy(SAMPLE)
        current["saturation_qps"] = 25.0 * 1.15     # +15%
        current["points"][0]["p99_ms"] = 40.0 * 3.0  # 3x
        drifts = compare_scorecards(SAMPLE, current)
        assert drifts[0].key == "points[0].p99_ms"

    def test_drift_to_dict_roundtrip(self):
        d = Drift("k", 2.0, 3.0, "regressed")
        assert d.to_dict() == {
            "key": "k", "baseline": 2.0, "current": 3.0,
            "ratio": 1.5, "status": "regressed",
        }


class TestBuiltScorecard:
    def test_scorecard_deterministic_and_complete(self):
        from repro.serving import build_serving_scorecard

        a = build_serving_scorecard(features=60_000, n_queries=60)
        b = build_serving_scorecard(features=60_000, n_queries=60)
        assert a == b                       # bit-identical rebuild
        assert compare_scorecards(a, b) == []
        flat = flatten(a)
        assert "saturation_qps" in flat
        assert "cached.hit_rate" in flat
        assert "degraded.load_factor" in flat
        assert any(k.startswith("points[") for k in flat)
