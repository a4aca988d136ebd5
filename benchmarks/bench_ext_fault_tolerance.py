"""Extension: fault tolerance — latency/availability vs fault rate.

Not a paper figure: the paper assumes fault-free hardware.  This
benchmark exercises the ``repro.faults`` layer the way a reliability
evaluation would: sweep the NAND read-retry rate and the chip
hard-failure rate, and plot query latency and availability against
them; then kill one channel accelerator outright and check the device
degrades (slower, never wrong).

Because occurrence draws are threshold tests on a per-site hash
(``u < rate``) with depths drawn from an independent hash stream, the
set of faulting sites at a lower rate is a subset of the set at a
higher rate — so the curves here are monotone per-realization, not just
in expectation, and the assertions can be exact rather than
statistical.
"""

import numpy as np
import pytest

from conftest import emit

from repro.analysis import Table
from repro.analysis.reliability import run_reliability_trial
from repro.core.scheduler import degraded_topk, plan_degraded_scan
from repro.core.topk import topk_select
from repro.faults import FaultPlan
from repro.ssd import Ssd
from repro.workloads import ALL_APPS

RETRY_RATES = [0.0, 0.01, 0.05, 0.10, 0.25]
CHIP_RATES = [0.0, 0.005, 0.02, 0.05]
FEATURES = 8_000
QUERIES = 3
SEED = 7


@pytest.fixture(scope="module")
def small_db():
    """One small database + app pair sized for full event-driven runs."""
    app = ALL_APPS["tir"]
    ssd = Ssd()
    meta = ssd.ftl.create_database(app.feature_bytes, FEATURES)
    return app, meta


def test_fault_latency_vs_retry_rate(benchmark, small_db):
    app, meta = small_db

    def sweep():
        reports = {}
        for rate in RETRY_RATES:
            plan = FaultPlan(read_retry_rate=rate, crc_error_rate=rate / 2)
            reports[rate] = run_reliability_trial(
                app, meta, plan, queries=QUERIES, seed=SEED
            )
        return reports

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        "Fault tolerance: latency vs NAND read-retry rate (tir, "
        f"{FEATURES} features)",
        ["Retry rate", "Mean", "p99 inflation", "Retry pages", "Slowdown"],
    )
    for rate, report in reports.items():
        table.add_row(
            f"{rate:.2f}",
            f"{report.mean_seconds * 1e3:.3f}ms",
            f"{report.p99_inflation:.3f}x",
            report.counters.get("pages_with_retry", 0),
            f"{report.slowdown:.3f}x",
        )
    emit(table, "ext_fault_retry_rate.txt")

    # zero-fault plan is bit-identical to the healthy baseline
    zero = reports[0.0]
    assert zero.slowdown == 1.0
    assert zero.p99_inflation == 1.0
    # realized latency is monotone in the fault rate (subset property)
    means = [reports[r].mean_seconds for r in RETRY_RATES]
    assert means == sorted(means)
    assert means[-1] > means[0]
    # soft faults never lose data
    assert all(reports[r].availability == 1.0 for r in RETRY_RATES)


def test_fault_availability_vs_chip_rate(benchmark, small_db):
    app, meta = small_db

    def sweep():
        reports = {}
        for rate in CHIP_RATES:
            plan = FaultPlan(chip_failure_rate=rate)
            reports[rate] = run_reliability_trial(
                app, meta, plan, queries=1, seed=SEED
            )
        return reports

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        "Fault tolerance: availability vs chip hard-failure rate (tir)",
        ["Chip-failure rate", "Availability", "Failed reads", "Mean latency"],
    )
    for rate, report in reports.items():
        table.add_row(
            f"{rate:.3f}",
            f"{report.availability * 100:.4f}%",
            report.counters.get("failed_reads", 0),
            f"{report.mean_seconds * 1e3:.3f}ms",
        )
    emit(table, "ext_fault_chip_rate.txt")

    assert reports[0.0].availability == 1.0
    # more dead chips can only lose more pages (ambient draws nest)
    avail = [reports[r].availability for r in CHIP_RATES]
    assert avail == sorted(avail, reverse=True)
    assert avail[-1] < 1.0


def test_fault_single_accel_failure_degrades_not_corrupts(benchmark, small_db):
    app, meta = small_db

    def run_pair():
        healthy = run_reliability_trial(
            app, meta, FaultPlan.none(), queries=1, seed=SEED
        )
        degraded = run_reliability_trial(
            app,
            meta,
            FaultPlan.none().fail_accelerator(5),
            queries=1,
            seed=SEED,
        )
        return healthy, degraded

    healthy, degraded = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    table = Table(
        "Fault tolerance: one channel accelerator hard-failed (tir)",
        ["Mode", "Latency", "Slowdown", "Availability", "Remapped pages"],
    )
    table.add_row("healthy", f"{healthy.mean_seconds * 1e3:.3f}ms", "1.000x",
                  "100%", 0)
    table.add_row("accel 5 dead", f"{degraded.mean_seconds * 1e3:.3f}ms",
                  f"{degraded.slowdown:.3f}x",
                  f"{degraded.availability * 100:.0f}%",
                  degraded.remapped_pages)
    emit(table, "ext_fault_degraded.txt")

    # degraded mode is slower but loses nothing: the dead channel's
    # stripe is adopted by survivors, so every page is still scanned
    assert degraded.mean_seconds > healthy.mean_seconds
    assert degraded.availability == 1.0
    assert degraded.remapped_pages > 0
    assert list(degraded.failed_channels) == [5]

    # and the *answer* is unchanged: the degraded scan plan returns the
    # exact same top-K the healthy partitioning does, ties included
    rng = np.random.default_rng(SEED)
    scores = rng.normal(size=FEATURES).astype(np.float32)
    plan = plan_degraded_scan(FEATURES, 32, [5])
    got = degraded_topk(scores, plan, k=10)
    want = topk_select(list(zip(scores.tolist(), range(FEATURES))), 10)
    assert got == want
