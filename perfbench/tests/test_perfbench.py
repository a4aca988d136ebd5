"""The benchmark's own tests: span arithmetic, oracles, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import oracles  # noqa: E402
from spans import ROOT as NO_PARENT  # noqa: E402
from spans import SpanRecorder, layer_totals, self_seconds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _nested() -> SpanRecorder:
    """a[0,10] > (b[1,4] > c[2,3]), d[5,9]; then e[11,12] at top level."""
    rec = SpanRecorder()
    a = rec.add("a", 0.0, 10.0)
    b = rec.add("b", 1.0, 4.0, parent=a)
    rec.add("c", 2.0, 3.0, parent=b)
    rec.add("d", 5.0, 9.0, parent=a)
    rec.add("b", 11.0, 12.0)
    return rec


def test_self_time_subtracts_children_only():
    arrays = _nested().arrays()
    own = self_seconds(arrays["parent"], arrays["start"], arrays["end"])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_totals_and_unattributed_sum_to_window():
    rec = _nested()
    totals, rest = layer_totals(rec.arrays(), rec.names, window=(0.0, 13.0))
    assert totals == {"a": 3.0, "b": 3.0, "c": 1.0, "d": 4.0}
    assert rest == 2.0  # [10, 11] and [12, 13] are covered by no span
    assert sum(totals.values()) + rest == 13.0


def test_window_excludes_spans_outside_it():
    rec = _nested()
    totals, rest = layer_totals(rec.arrays(), rec.names, window=(10.5, 13.0))
    assert totals["b"] == 1.0 and totals["a"] == 0.0
    assert rest == 1.5


def test_wrapped_calls_nest_and_share_op_ids():
    rec = SpanRecorder()

    def inner(x):
        return x + 1

    inner_t = rec.wrap("inner", inner)

    def outer(x):
        return inner_t(x) * 2

    outer_t = rec.wrap("outer", outer)
    rec.op_id = 7
    assert outer_t(1) == 4
    arrays = rec.arrays()
    assert [rec.names[i] for i in arrays["name_id"]] == ["outer", "inner"]
    assert arrays["parent"].tolist() == [NO_PARENT, 0]
    assert arrays["op"].tolist() == [7, 7]
    own = self_seconds(arrays["parent"], arrays["start"], arrays["end"])
    total = arrays["end"][0] - arrays["start"][0]
    assert own.sum() == pytest.approx(total, rel=1e-12)
    assert (own >= 0).all()


def test_opaque_span_hides_its_callees():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: 1)
    top = rec.wrap("top", lambda: leaf() + leaf(), opaque=True)
    assert top() == 2
    assert leaf() == 1  # outside the opaque span it records again
    assert [rec.names[i] for i in rec.arrays()["name_id"]] == ["top", "leaf"]


def test_patch_skips_inherited_attributes_and_unpatch_restores():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    rec = SpanRecorder()
    original = Base.__dict__["f"]
    assert rec.patch(Base, "f", "base.f")
    assert not rec.patch(Child, "f", "child.f")
    assert Child().f() == 1 and len(rec) == 1
    rec.unpatch()
    assert Base.__dict__["f"] is original


def test_every_wrapped_function_exists():
    rec = SpanRecorder()
    try:
        assert layers.instrument(rec) == []
    finally:
        rec.unpatch()


# ----------------------------------------------------------------------
# oracles reject injected wrong results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def textqa():
    from repro.workloads import get_app

    app = get_app("textqa")
    rng = np.random.default_rng(3)
    features = rng.normal(0, 1, (300, app.feature_floats)).astype(np.float32)
    qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
    return app.build_scn(seed=3), features, qfv


def test_device_result_passes_and_injected_errors_fail(textqa):
    from repro.core.api import DeepStoreDevice

    graph, features, qfv = textqa
    device = DeepStoreDevice()
    db = device.write_db(features)
    model = device.load_graph(graph)
    result = device.get_results(device.query(qfv, 10, model, db))
    ids, scores = result.feature_ids, result.scores
    assert oracles.check_exact_topk(graph, qfv, features, scores, 10) == []
    assert oracles.check_scores_at_ids(graph, qfv, features, ids, scores) == []

    # a worse candidate in place of the best one
    everything = oracles.scn_scores(graph, qfv, features)
    worse = scores.copy()
    worse[0] = np.sort(everything)[-20]
    assert oracles.check_exact_topk(graph, qfv, features, worse, 10)
    # scores that do not belong to the returned ids
    assert oracles.check_scores_at_ids(graph, qfv, features, ids[::-1], scores)
    # a perturbed score
    nudged = scores.copy()
    nudged[3] += 1e-3
    assert oracles.check_scores_at_ids(graph, qfv, features, ids, nudged)
    # the scores of another query
    other = oracles.scn_scores(graph, -qfv, features[ids])
    assert oracles.check_scores_at_ids(graph, qfv, features, ids, other)


def test_visibility_oracle_rejects_tombstoned_ids():
    visible = np.array([0, 1, 2, 4, 5])
    assert oracles.check_visible([5, 0], visible) == []
    assert oracles.check_visible([5, 3], visible)
    assert oracles.check_visible([6], visible)


def test_ledger_oracle_rejects_broken_conservation():
    ledger = {
        "a": {"offered": 10, "admitted": 8, "rejected": 2, "evicted": 1,
              "expired": 1, "popped": 6, "depth": 0},
    }
    assert oracles.check_ledgers(ledger, {"a": 10}, {"a": 6}) == []
    assert oracles.check_ledgers(ledger, {"a": 11}, {"a": 6})
    assert oracles.check_ledgers(ledger, {"a": 10}, {"a": 5})
    broken = {"a": dict(ledger["a"], popped=7)}
    assert oracles.check_ledgers(broken, {"a": 10}, {"a": 7})
    assert oracles.check_ledgers(ledger, {"a": 10, "b": 3}, {"a": 6})


def test_recall():
    assert oracles.recall([1, 2, 3], [3, 2, 1]) == 1.0
    assert oracles.recall([1, 9], [1, 2]) == 0.5


# ----------------------------------------------------------------------
# printed metric names match BENCHMARK.json
# ----------------------------------------------------------------------
def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tenant_day",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert sorted(got) == sorted(want)
    assert got == want
    if trace:
        assert result["metrics"]["trace.digest_match"]["value"] == 1.0
        assert result["metrics"]["nn.score.self_s"]["value"] == 0.0


def test_spec_lists_the_benchmark_workloads():
    import run

    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.UNITS)
