"""Weighted-fair admission: unit + property suites (ISSUE satellite).

Hypothesis drives :class:`WeightedFairQueue` with arbitrary
interleavings of per-tenant offers and DRR pops, pinning the three
fairness-layer invariants the tenancy plane's correctness rests on:

* **per-tenant conservation** — every tenant's ledger satisfies
  ``offered == admitted + rejected`` and ``admitted == popped +
  evicted + expired + depth`` bit-exactly after every operation,
  independently of every other tenant;
* **no starvation** — a continuously backlogged tenant is always
  served within a bounded number of dispatches (the bound follows
  from the smallest weight's credit accrual rate);
* **weight-proportional service** — two continuously backlogged
  tenants are served in the ratio of their weights, within one
  deficit quantum plus one batch.

Plus the single-tenant degeneracy check (the scheduler disappears) and
the :class:`Autoscaler` decision-kernel unit tests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.admission import AdmissionQueue, QueuedQuery
from repro.tenancy.admission import TenantQueueSpec, WeightedFairQueue
from repro.tenancy.autoscale import Autoscaler, AutoscalerConfig
from repro.tenancy.spec import (
    BurstSpec,
    ShardFailureSpec,
    TenancyConfig,
    TenantSpec,
)


def _q(qid, now, compat="tir", priority=0):
    return QueuedQuery(qid=qid, arrival_s=now, priority=priority,
                       compat=compat)


class TestWeightedFairQueueUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            WeightedFairQueue([])
        with pytest.raises(ValueError, match="quantum"):
            WeightedFairQueue([TenantQueueSpec("a")], quantum=0.0)
        with pytest.raises(ValueError, match="duplicate"):
            WeightedFairQueue(
                [TenantQueueSpec("a"), TenantQueueSpec("a")]
            )
        with pytest.raises(ValueError, match="weight"):
            TenantQueueSpec("a", weight=0.0)
        with pytest.raises(KeyError):
            WeightedFairQueue([TenantQueueSpec("a")]).offer(
                "b", _q(0, 0.0), 0.0
            )

    def test_idle_returns_empty(self):
        wfq = WeightedFairQueue([TenantQueueSpec("a")])
        assert wfq.pop_batch(0.0, 4) == ("", [])
        assert wfq.depth == 0

    def test_per_tenant_bounds_are_independent(self):
        wfq = WeightedFairQueue([
            TenantQueueSpec("a", bound=2),
            TenantQueueSpec("b", bound=2),
        ])
        for i in range(4):
            assert wfq.offer("a", _q(i, 0.0), 0.0) == (i < 2)
        # a's overflow never touches b's slots
        assert wfq.offer("b", _q(10, 0.0), 0.0)
        assert wfq.ledger()["a"]["depth"] == 2
        assert wfq.ledger()["b"]["depth"] == 1
        assert wfq.counters("a").rejected == 2
        assert wfq.counters("b").rejected == 0
        assert wfq.conserved()

    def test_batch_stays_within_one_tenant(self):
        wfq = WeightedFairQueue([
            TenantQueueSpec("a"), TenantQueueSpec("b"),
        ])
        for i in range(3):
            wfq.offer("a", _q(i, 0.0), 0.0)
            wfq.offer("b", _q(10 + i, 0.0), 0.0)
        tenant, batch = wfq.pop_batch(0.0, 8)
        assert tenant in ("a", "b")
        assert len(batch) == 3  # same-compat prefix of one tenant only
        assert {q.qid // 10 for q in batch} == {0 if tenant == "a" else 1}

    def test_take_shed_labels_tenants(self):
        wfq = WeightedFairQueue([
            TenantQueueSpec("a", bound=1), TenantQueueSpec("b", bound=1),
        ])
        wfq.offer("a", _q(0, 0.0), 0.0)
        wfq.offer("a", _q(1, 0.0), 0.0)  # rejected
        wfq.offer("b", _q(2, 0.0), 0.0)
        shed = wfq.take_shed()
        assert [(t, q.qid, r) for t, q, r in shed] == [("a", 1, "rejected")]

    def test_deadline_tenant_expires_in_place(self):
        wfq = WeightedFairQueue([
            TenantQueueSpec("a", policy="deadline", deadline_s=1.0),
        ])
        wfq.offer("a", _q(0, 0.0), 0.0)
        assert wfq.pop_batch(5.0, 4) == ("", [])
        assert wfq.counters("a").expired == 1
        assert wfq.conserved()


class TestSingleTenantDegeneracy:
    """With one tenant the scheduler must vanish: same pops, same
    ledger, batch for batch, as a bare AdmissionQueue."""

    def test_matches_bare_queue(self):
        wfq = WeightedFairQueue(
            [TenantQueueSpec("solo", weight=2.5, bound=4)], quantum=0.7
        )
        bare = AdmissionQueue(4)
        ops = [
            ("offer", 0), ("offer", 1), ("pop", 2), ("offer", 2),
            ("offer", 3), ("offer", 4), ("offer", 5), ("pop", 3),
            ("pop", 8), ("pop", 1),
        ]
        now = 0.0
        for kind, arg in ops:
            now += 0.25
            if kind == "offer":
                assert (
                    wfq.offer("solo", _q(arg, now), now)
                    == bare.offer(_q(arg, now), now)
                )
            else:
                tenant, batch = wfq.pop_batch(now, arg)
                expect = bare.pop_batch(now, arg)
                assert [q.qid for q in batch] == [q.qid for q in expect]
        c, b = wfq.counters("solo"), bare.counters
        assert (c.offered, c.admitted, c.rejected, c.popped) == (
            b.offered, b.admitted, b.rejected, b.popped
        )


# -- property suites ----------------------------------------------------

TENANTS = ("a", "b", "c")
offer_ops = st.tuples(
    st.just("offer"), st.sampled_from(TENANTS),
    st.sampled_from(["tir", "mir"]),
)
pop_ops = st.tuples(
    st.just("pop"), st.integers(min_value=1, max_value=4), st.just(""),
)
op_lists = st.lists(st.one_of(offer_ops, pop_ops), min_size=1,
                    max_size=80)
weight_lists = st.lists(
    st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    min_size=3, max_size=3,
)
policy_lists = st.lists(
    st.sampled_from(["reject", "drop-oldest", "deadline"]),
    min_size=3, max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(ops=op_lists, weights=weight_lists, policies=policy_lists,
       bound=st.integers(min_value=1, max_value=6),
       quantum=st.floats(min_value=0.125, max_value=2.0,
                         allow_nan=False))
def test_per_tenant_conservation_under_interleaving(
    ops, weights, policies, bound, quantum
):
    wfq = WeightedFairQueue(
        [
            TenantQueueSpec(
                name, weight=w, bound=bound, policy=p,
                deadline_s=0.8 if p == "deadline" else None,
            )
            for name, w, p in zip(TENANTS, weights, policies)
        ],
        quantum=quantum,
    )
    now = 0.0
    for i, (kind, arg, compat) in enumerate(ops):
        now += 0.1
        if kind == "offer":
            wfq.offer(arg, _q(i, now, compat=compat), now)
        else:
            tenant, batch = wfq.pop_batch(now, arg)
            if batch:
                # one tenant, one compat key per dispatched batch
                assert len({q.compat for q in batch}) == 1
            else:
                assert tenant == "" and wfq.depth == 0
        wfq.take_shed()
        for name in TENANTS:
            assert wfq.ledger()[name]["depth"] <= bound
        assert wfq.conserved(), wfq.ledger()
    # final ledger identities, bit-exact per tenant
    for name, row in wfq.ledger().items():
        assert row["offered"] == row["admitted"] + row["rejected"]
        assert row["admitted"] == (
            row["popped"] + row["evicted"] + row["expired"] + row["depth"]
        )


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(
           st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
           min_size=3, max_size=3),
       quantum=st.floats(min_value=0.25, max_value=1.0, allow_nan=False))
def test_drr_never_starves_backlogged_tenant(weights, quantum):
    wfq = WeightedFairQueue(
        [
            TenantQueueSpec(name, weight=w, bound=64)
            for name, w in zip(TENANTS, weights)
        ],
        quantum=quantum,
    )
    qid = 0
    for name in TENANTS:  # keep everyone permanently backlogged
        for _ in range(8):
            wfq.offer(name, _q(qid, 0.0), 0.0)
            qid += 1
    # a backlogged tenant accrues min_w * quantum credit per round; a
    # round costs at most sum(w*q + 2) dispatches (each visitor spends
    # its whole quantum while it holds the turn)
    rounds_needed = int(1.0 / (min(weights) * quantum)) + 2
    round_cost = sum(int(w * quantum) + 2 for w in weights)
    bound = rounds_needed * round_cost
    last_served = {name: 0 for name in TENANTS}
    for step in range(1, bound + bound // 2 + 2):
        tenant, batch = wfq.pop_batch(0.0, 1)
        assert batch, "backlogged scheduler must always dispatch"
        last_served[tenant] = step
        wfq.offer(tenant, _q(qid, 0.0), 0.0)  # top the queue back up
        qid += 1
        for name in TENANTS:
            assert step - last_served[name] <= bound, (
                f"{name} starved for {step - last_served[name]} "
                f"dispatches (bound {bound})"
            )


@settings(max_examples=60, deadline=None)
@given(wa=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
       wb=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
       quantum=st.floats(min_value=0.25, max_value=1.0,
                         allow_nan=False))
def test_weight_proportional_within_one_quantum(wa, wb, quantum):
    wfq = WeightedFairQueue(
        [
            TenantQueueSpec("a", weight=wa, bound=256),
            TenantQueueSpec("b", weight=wb, bound=256),
        ],
        quantum=quantum,
    )
    qid = 0
    for name in ("a", "b"):
        for _ in range(128):
            wfq.offer(name, _q(qid, 0.0), 0.0)
            qid += 1
    served = {"a": 0, "b": 0}
    n_pops = 200
    for _ in range(n_pops):
        tenant, batch = wfq.pop_batch(0.0, 1)
        served[tenant] += len(batch)
        wfq.offer(tenant, _q(qid, 0.0), 0.0)
        qid += 1
    # both continuously backlogged: visit counts differ by at most one
    # round, deficits live in (-1, 1 + w*q), so cross-multiplied service
    # counts agree within one quantum's worth of credit per tenant
    slack = (wa + wb) * (2.0 + max(wa, wb) * quantum)
    assert abs(served["a"] * wb - served["b"] * wa) <= slack * max(wa, wb), (
        f"served={served} weights=({wa}, {wb}) quantum={quantum}"
    )


# -- autoscaler decision kernel -----------------------------------------

class TestAutoscaler:
    CFG = AutoscalerConfig(
        min_backends=1, max_backends=3, window_s=100.0,
        scale_up_threshold=2.0, scale_down_threshold=0.5,
        evaluate_interval_s=10.0, cooldown_s=30.0, actuation_s=5.0,
    )

    def test_validation(self):
        with pytest.raises(ValueError, match="min_backends"):
            AutoscalerConfig(min_backends=0)
        with pytest.raises(ValueError, match="max_backends"):
            AutoscalerConfig(min_backends=3, max_backends=2)
        with pytest.raises(ValueError, match="flap"):
            AutoscalerConfig(scale_up_threshold=1.0,
                             scale_down_threshold=1.0)
        with pytest.raises(ValueError):
            Autoscaler(self.CFG, initial_backends=9)

    def test_scale_up_on_any_tenant_burning(self):
        scaler = Autoscaler(self.CFG, 1)
        action = scaler.evaluate(10.0, {"a": 0.1, "b": 5.0})
        assert action is not None and action.kind == "scale_up"
        assert action.trigger_tenant == "b"
        assert action.backends_after == 2
        assert action.effective_s == 15.0
        assert scaler.target == 2

    def test_scale_down_needs_all_quiet(self):
        scaler = Autoscaler(self.CFG, 2)
        assert scaler.evaluate(10.0, {"a": 0.1, "b": 0.9}) is None
        action = scaler.evaluate(50.0, {"a": 0.1, "b": 0.2})
        assert action is not None and action.kind == "scale_down"
        assert action.backends_after == 1

    def test_cooldown_suppresses_consecutive_actions(self):
        scaler = Autoscaler(self.CFG, 1)
        assert scaler.evaluate(10.0, {"a": 9.0}) is not None
        assert scaler.evaluate(20.0, {"a": 9.0}) is None  # inside cooldown
        assert scaler.evaluate(41.0, {"a": 9.0}) is not None

    def test_bounds_are_hard(self):
        scaler = Autoscaler(self.CFG, 3)
        assert scaler.evaluate(10.0, {"a": 99.0}) is None  # at max
        scaler = Autoscaler(self.CFG, 1)
        assert scaler.evaluate(10.0, {"a": 0.0}) is None  # at min

    def test_disabled_never_acts(self):
        cfg = AutoscalerConfig(enabled=False)
        scaler = Autoscaler(cfg, 1)
        assert scaler.evaluate(10.0, {"a": 99.0}) is None
        assert scaler.actions == []


# -- spec validation ----------------------------------------------------

class TestSpecValidation:
    def test_defaults_valid(self):
        TenantSpec(name="t")
        TenancyConfig(tenants=(TenantSpec(name="t"),))

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "t", "weight": 0.0},
        {"name": "t", "base_qps": -1.0},
        {"name": "t", "amplitude": 1.0},
        {"name": "t", "phase": 1.0},
        {"name": "t", "apps": ()},
        {"name": "t", "apps": (("nosuch", 1.0),)},
        {"name": "t", "apps": (("tir", 0.5),)},
        {"name": "t", "apps": (("tir", 0.5), ("mir", 0.2))},
        {"name": "t", "write_fraction": 1.0},
        {"name": "t", "deadline_class": "asap"},
        {"name": "t", "queue_bound": 0},
        {"name": "t", "zipf_alpha": -0.1},
    ])
    def test_bad_tenant_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"start_fraction": 1.0, "duration_fraction": 0.1},
        {"start_fraction": 0.9, "duration_fraction": 0.2},
        {"start_fraction": 0.1, "duration_fraction": 0.0},
        {"start_fraction": 0.1, "duration_fraction": 0.1,
         "multiplier": 1.0},
    ])
    def test_bad_burst_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BurstSpec(**kwargs)

    def test_bad_scenarios_rejected(self):
        t = TenantSpec(name="t")
        with pytest.raises(ValueError, match="at least one tenant"):
            TenancyConfig(tenants=())
        with pytest.raises(ValueError, match="duplicate"):
            TenancyConfig(tenants=(t, TenantSpec(name="t")))
        with pytest.raises(ValueError, match="initial_backends"):
            TenancyConfig(tenants=(t,), initial_backends=9)
        with pytest.raises(ValueError, match="replica"):
            TenancyConfig(
                tenants=(t,), n_replicas=2,
                failure=ShardFailureSpec(shard=0, replica=5),
            )
        with pytest.raises(ValueError, match="n_replicas >= 2"):
            TenancyConfig(
                tenants=(t,), n_replicas=1,
                failure=ShardFailureSpec(shard=0, replica=0),
            )
        with pytest.raises(ValueError, match="heal_fraction"):
            ShardFailureSpec(at_fraction=0.5, heal_fraction=0.4)

    def test_deadline_class_presets(self):
        interactive = TenantSpec(name="t", deadline_class="interactive")
        assert interactive.queue_policy == "deadline"
        assert interactive.queue_deadline_s == pytest.approx(
            2.0 * interactive.latency_slo_s
        )
        batch = TenantSpec(name="b", deadline_class="batch")
        assert batch.queue_policy == "reject"
        assert batch.queue_deadline_s is None
        assert batch.latency_slo_s > interactive.latency_slo_s

    def test_lookup_helpers(self):
        cfg = TenancyConfig(tenants=(
            TenantSpec(name="x", apps=(("tir", 0.5), ("mir", 0.5))),
            TenantSpec(name="y", apps=(("tir", 1.0),)),
        ))
        assert cfg.tenant("x").name == "x"
        with pytest.raises(KeyError):
            cfg.tenant("zzz")
        assert cfg.distinct_apps() == ("tir", "mir")
