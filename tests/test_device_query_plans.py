"""One device query template, three row-selection plans.

``DeepStoreDevice.query`` (range), ``LifecycleDevice.query`` on a
mutated database (visible rows) and ``IndexedDevice.query`` with a built
index (probed lists ± delta) differ only in which rows they score and
what they are charged.  Every plan must therefore reject bad input with
the same message and price a failed accelerator the same way: the
degraded model over the plan's charged rows, results unchanged.

Also here: the public-entry validation of ``k`` (per plan), of
``nprobe``, of ``IndexBuildConfig`` and of ``region_blocks_for``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.api import DeepStoreApiError, DeepStoreDevice
from repro.index import IndexBuildConfig, IndexedDevice
from repro.ingest import LifecycleDevice
from repro.ingest.store import IngestError
from repro.ingest.writepath import region_blocks_for
from repro.workloads import get_app

APP = get_app("textqa")
DIM = APP.feature_floats
GRAPH = APP.build_scn(seed=1)
CONV_GRAPH = get_app("reid").build_scn(seed=1)
N = 256
N_LISTS = 8
NPROBE = 2
K = 7


#: plan -> (device class, mutate the database, build an index, query kwargs)
PLANS = {
    "range": (DeepStoreDevice, False, False, {}),
    "visible": (LifecycleDevice, True, False, {}),
    "probed": (IndexedDevice, False, True, {"nprobe": NPROBE}),
    "probed_mutated": (IndexedDevice, True, True, {"nprobe": NPROBE}),
}


def _build(plan):
    cls, mutate, index, extra = PLANS[plan]
    device = cls()
    rng = np.random.default_rng(5)
    db = device.write_db(rng.normal(0, 1, (N, DIM)).astype(np.float32))
    model = device.load_graph(GRAPH)
    if index:
        device.build_index(db, model, N_LISTS, iterations=4, seed=2)
    if mutate:
        device.enable_ingest(db)
        device.delete_db_rows(db, list(range(0, 60, 3)))
        device.insert_db(db, rng.normal(0, 1, (24, DIM)).astype(np.float32))
    qfv = rng.normal(0, 1, DIM).astype(np.float32)
    return device, db, model, qfv, extra


def _charged_rows(device, db, result, plan):
    """Rows the plan is priced for, derived outside the device."""
    if plan == "range":
        return N
    if plan == "visible":
        store = device.lifecycle(db).store
        span = store.n_rows
        return max(1, int(round(span * store.physical_rows / store.n_rows)))
    return result.probed_rows


@pytest.mark.parametrize("plan", sorted(PLANS))
class TestEveryPlan:
    """The shared template's checks and pricing, per plan."""

    def test_input_errors_carry_one_message(self, plan):
        device, db, model, qfv, extra = _build(plan)
        conv = device.load_graph(CONV_GRAPH)
        end = len(device.read_db(db))
        cases = [
            (dict(qfv=qfv, k=0, model_id=model), "k must be an integer >= 1, got 0"),
            (dict(qfv=qfv, k=K, model_id=999), "unknown model id 999"),
            (dict(qfv=qfv, k=K, model_id=model, db_start=5, db_end=3),
             "bad db range [5, 3)"),
            (dict(qfv=qfv, k=K, model_id=model, db_end=end + 1),
             f"bad db range [0, {end + 1})"),
            (dict(qfv=qfv, k=K, model_id=conv, accel_level="chip"),
             f"model {CONV_GRAPH.name!r} is not supported at the chip level"),
            (dict(qfv=np.zeros(DIM + 1, np.float32), k=K, model_id=model),
             f"QFV size {(DIM + 1) * 4} bytes does not match database "
             f"feature size {DIM * 4}"),
        ]
        for kwargs, message in cases:
            with pytest.raises(DeepStoreApiError) as info:
                device.query(db_id=db, **kwargs, **extra)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "k", [0, -1, 2.5, 3.0, float("nan"), float("inf"), True]
    )
    def test_k_must_be_a_whole_count(self, plan, k):
        device, db, model, qfv, extra = _build(plan)
        with pytest.raises(DeepStoreApiError, match="k must be an integer"):
            device.query(qfv, k, model, db, **extra)

    def test_numpy_integer_k_is_accepted(self, plan):
        device, db, model, qfv, extra = _build(plan)
        result = device.get_results(
            device.query(qfv, np.int64(3), model, db, **extra)
        )
        assert len(result.feature_ids) == 3

    def test_failed_accelerator_prices_degraded_charged_rows(self, plan):
        device, db, model, qfv, extra = _build(plan)
        healthy = device.get_results(device.query(qfv, K, model, db, **extra))
        device.fail_accelerator(0)
        degraded = device.get_results(device.query(qfv, K, model, db, **extra))

        assert degraded.feature_ids.tolist() == healthy.feature_ids.tolist()
        np.testing.assert_array_equal(degraded.scores, healthy.scores)
        assert degraded.probed_rows == healthy.probed_rows
        assert degraded.routing_seconds == healthy.routing_seconds

        meta = device.ssd.ftl.get(db)
        charged = _charged_rows(device, db, degraded, plan)
        expected = device._system(device.level).degraded_latency_for(
            GRAPH,
            device._sliced_meta(meta, charged),
            feature_bytes=meta.feature_bytes,
            failed_accels={0},
            name=GRAPH.name,
        )
        expected = dataclasses.replace(
            expected,
            engine_seconds=expected.engine_seconds + degraded.routing_seconds,
        )
        assert degraded.latency == expected
        assert degraded.latency.total_seconds > healthy.latency.total_seconds

    def test_plan_shape(self, plan):
        device, db, model, qfv, extra = _build(plan)
        result = device.get_results(device.query(qfv, K, model, db, **extra))
        if plan.startswith("probed"):
            assert result.nprobe == NPROBE
            assert result.routing_seconds > 0.0
            assert 0 < result.probed_rows < len(device.read_db(db))
        else:
            assert (result.nprobe, result.probed_rows) == (0, 0)
            assert result.routing_seconds == 0.0


class TestCounters:
    """Counter semantics are per plan, and unchanged by the template."""

    def test_visible_plan_counts_misses_and_hits(self):
        device, db, model, qfv, _ = _build("visible")
        device.set_qc(threshold=0.5)
        device.query(qfv, K, model, db)
        assert device.get_results(device.query(qfv, K, model, db)).cache_hit
        snap = device.metrics.snapshot()
        assert snap["ingest.queries"] == 1
        assert snap["ingest.query_cache_hits"] == 1

    def test_probed_plan_counts_misses_only(self):
        device, db, model, qfv, extra = _build("probed_mutated")
        device.set_qc(threshold=0.5)
        device.query(qfv, K, model, db, **extra)
        assert device.get_results(
            device.query(qfv, K, model, db, **extra)
        ).cache_hit
        snap = device.metrics.snapshot()
        assert snap["index.queries"] == 1
        assert "ingest.queries" not in snap
        assert "ingest.query_cache_hits" not in snap


class TestNprobeValidation:
    """A bad nprobe is an API error, not a silent clamp or a traceback."""

    @pytest.mark.parametrize("nprobe", [0, -3, 2.5, float("nan"), float("inf"), True])
    def test_rejected(self, nprobe):
        device, db, model, qfv, _ = _build("probed")
        with pytest.raises(DeepStoreApiError, match="nprobe"):
            device.query(qfv, K, model, db, nprobe=nprobe)

    def test_rejected_before_a_cache_hit(self):
        device, db, model, qfv, _ = _build("probed")
        device.set_qc(threshold=0.5)
        device.query(qfv, K, model, db, nprobe=NPROBE)
        with pytest.raises(DeepStoreApiError, match="nprobe"):
            device.query(qfv, K, model, db, nprobe=0)

    def test_integral_values_are_accepted(self):
        device, db, model, qfv, _ = _build("probed")
        as_int = device.get_results(device.query(qfv, K, model, db, nprobe=2))
        as_float = device.get_results(device.query(qfv, K, model, db, nprobe=2.0))
        as_numpy = device.get_results(
            device.query(qfv, K, model, db, nprobe=np.int64(2))
        )
        for other in (as_float, as_numpy):
            assert other.feature_ids.tolist() == as_int.feature_ids.tolist()
            assert other.latency == as_int.latency
            assert other.nprobe == 2


class TestIndexBuildConfigValidation:
    """Bad build knobs fail at construction, naming the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_lists", 0),
            ("iterations", 0),
            ("op_fraction", 1.5),
            ("op_fraction", -0.1),
            ("op_fraction", float("nan")),
            ("headroom", 0.5),
            ("headroom", float("nan")),
            ("headroom", float("inf")),
            ("region_pages_per_block", 0),
        ],
    )
    def test_rejected(self, field, value):
        kwargs = {"n_lists": N_LISTS, field: value}
        with pytest.raises(ValueError, match=field):
            IndexBuildConfig(**kwargs)


class TestRegionBlocksGuards:
    """``region_blocks_for`` returns or raises; it never loops forever."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pages_per_block", 0),
            ("op_fraction", 1.5),
            ("op_fraction", float("nan")),
            ("headroom", 0.5),
            ("headroom", float("nan")),
            ("headroom", float("inf")),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(IngestError, match=field):
            region_blocks_for(
                rows=1000, feature_bytes=DIM * 4, page_bytes=16384, **{field: value}
            )