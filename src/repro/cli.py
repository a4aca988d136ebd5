"""Command-line interface: ``python -m repro <command>``.

Small, self-contained runners over the library for the common questions:

=============  ==========================================================
``info``       versions, SSD geometry, accelerator placements
``table1``     the five applications vs their published Table-1 rows
``breakdown``  GPU+SSD time breakdown at the evaluation batch (Fig. 2)
``speedup``    per-app, per-level speedup & energy efficiency (Table 4)
``dse``        PE scaling curves (Fig. 6)
``cache``      a query-cache simulation (Fig. 13-style point)
``faults``     fault-injected queries and a reliability report
``trace``      run one traced query; emit Chrome trace JSON + breakdown
``profile``    busiest-resource occupancy and idle-gap analysis
``serve``      open-loop serving: offered-load sweep or perf scorecard
``cluster``    sharded multi-SSD scatter-gather queries / perf scorecard
``ingest``     online ingest & data-lifecycle loop / perf scorecard
``index``      IVF ANN probes: recall/latency Pareto sweep / scorecard
``chaos``      scripted fault day: crash recovery + cluster hardening
``tenants``    multi-tenant production day: fairness, autoscaling, SLOs
``demo``       a real end-to-end query with planted neighbors
=============  ==========================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

#: the five applications every ``--app`` flag chooses from
APPS = ("reid", "mir", "estp", "tir", "textqa")


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.core.placement import LEVELS
    from repro.ssd import SsdConfig

    config = SsdConfig()
    geo = config.geometry
    print(f"repro {repro.__version__} — DeepStore (MICRO-52 2019) reproduction")
    print(
        f"SSD: {geo.channels} channels x {geo.chips_per_channel} chips x "
        f"{geo.planes_per_chip} planes, {geo.page_bytes // 1024} KB pages, "
        f"{geo.capacity_bytes / 1024**4:.1f} TiB"
    )
    print(
        f"Bandwidth: {config.timing.channel_bandwidth / 1e6:.0f} MB/s per "
        f"channel ({config.internal_bandwidth / 1e9:.1f} GB/s internal), "
        f"{config.external_bandwidth / 1e9:.1f} GB/s external"
    )
    print(f"Accelerator power budget: {config.accelerator_power_budget_w:.0f} W")
    for name, p in LEVELS.items():
        print(
            f"  {name:8s} {p.systolic.rows}x{p.systolic.cols} "
            f"{p.systolic.dataflow} @ {p.systolic.frequency_hz / 1e6:.0f} MHz, "
            f"{p.scratchpad_bytes // 1024} KB scratchpad, "
            f"{p.area_mm2} mm^2, x{p.count(config)}"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import Table, format_si
    from repro.workloads import ALL_APPS

    table = Table(
        "Table 1 (measured vs paper)",
        ["App", "Feature", "Layers c/f/e", "FLOPs", "Weights", "paper FLOPs"],
    )
    for name, app in ALL_APPS.items():
        graph = app.build_scn()
        counts = graph.count_layers()
        table.add_row(
            name,
            f"{app.feature_bytes / 1024:.1f}KB",
            f"{counts['conv']}/{counts['fc']}/{counts['elementwise']}",
            format_si(graph.total_flops()),
            f"{graph.weight_bytes() / 2**20:.2f}MiB",
            format_si(app.table1.total_flops),
        )
    table.print()
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.analysis import Table, format_seconds
    from repro.baseline import GpuSsdSystem
    from repro.workloads import ALL_APPS

    system = GpuSsdSystem()
    table = Table(
        "Fig. 2: GPU+SSD breakdown at the evaluation batch",
        ["App", "Batch", "SSD read %", "Memcpy %", "Compute %", "Batch time"],
    )
    for name, app in ALL_APPS.items():
        bd = system.batch_breakdown(app)
        f = bd.fractions()
        table.add_row(
            name, bd.batch,
            f"{f['ssd_read'] * 100:5.1f}", f"{f['memcpy'] * 100:5.1f}",
            f"{f['compute'] * 100:5.1f}", format_seconds(bd.serial_total_s),
        )
    table.print()
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from repro.analysis import Table, compare_levels
    from repro.ssd import Ssd
    from repro.workloads import ALL_APPS, get_app

    ssd = Ssd()
    apps = [get_app(args.app)] if args.app else list(ALL_APPS.values())
    table = Table(
        f"Speedup / energy-efficiency vs GPU+SSD ({args.gigabytes:.0f} GB DBs)",
        ["App", "SSD-lvl", "Channel", "Chip", "EE channel"],
    )
    for app in apps:
        meta = ssd.ftl.create_database(
            app.feature_bytes, int(args.gigabytes * 1e9 / app.feature_bytes)
        )
        row = {c.level: c for c in compare_levels(app, meta)}

        def fmt(level, energy=False):
            cell = row[level]
            if not cell.supported:
                return "n/a"
            value = cell.energy_efficiency if energy else cell.speedup
            return f"{value:6.2f}x"

        table.add_row(app.name, fmt("ssd"), fmt("channel"), fmt("chip"),
                      fmt("channel", energy=True))
    table.print()
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.analysis import Table
    from repro.core.dse import explore_pe_scaling

    table = Table("Fig. 6: speedup vs #PEs", ["#PEs", "FC", "ConvD"])
    for pf, pc in zip(explore_pe_scaling("fc"), explore_pe_scaling("conv")):
        table.add_row(pf.num_pes, f"{pf.speedup:5.2f}x", f"{pc.speedup:5.2f}x")
    table.print()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.query_cache import (
        CacheTimingModel,
        EmbeddingComparator,
        QueryCache,
        QueryCacheSimulator,
    )
    from repro.workloads import QueryStream

    stream = QueryStream(
        dim=256, n_intents=args.intents, distribution=args.distribution,
        alpha=args.alpha, paraphrase_noise=0.15, noise_spread=0.85, seed=1,
    )
    cache = QueryCache(
        capacity=args.entries,
        comparator=EmbeddingComparator(),
        qcn_accuracy=0.98,
        threshold=args.threshold,
    )
    timing = CacheTimingModel(0.3e-6, 300e-6, args.scan_ms * 1e-3)
    report = QueryCacheSimulator(cache, timing).run(
        stream.generate(args.queries), warmup=args.queries // 4
    )
    print(
        f"{args.distribution} stream, {args.entries} entries, "
        f"threshold {args.threshold * 100:.0f}%:"
    )
    print(f"  miss rate     {report.miss_rate * 100:5.1f}%")
    print(f"  mean query    {report.mean_seconds * 1e3:.2f} ms "
          f"(scan {args.scan_ms:.1f} ms)")
    print(f"  speedup       {report.speedup_over(args.scan_ms * 1e-3):.2f}x "
          f"over no-cache")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.capacity import PlanningError, plan_deployment

    try:
        plans = plan_deployment(
            args.app, corpus_features=args.features, target_qps=args.qps,
        )
    except PlanningError as exc:
        print(f"infeasible: {exc}")
        return 1
    for plan in plans[:6]:
        print(plan.describe())
    return 0 if plans and plans[0].feasible else 1


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.analysis.scorecard import build_scorecard

    card = build_scorecard(gigabytes=args.gigabytes)
    if args.json:
        print(card.to_json())
    else:
        print(card.render())
    return 0 if card.structural_ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run fault-injected queries and print a reliability report.

    Deterministic in ``--seed`` and the plan flags: re-running the same
    command reproduces the report byte for byte.
    """
    from repro.analysis.reliability import run_reliability_trial
    from repro.faults import FaultPlan
    from repro.ssd import Ssd
    from repro.workloads import get_app

    app = get_app(args.app)
    ssd = Ssd()
    meta = ssd.ftl.create_database(app.feature_bytes, args.features)
    plan = FaultPlan(
        read_retry_rate=args.retry_rate,
        crc_error_rate=args.crc_rate,
        chip_failure_rate=args.chip_rate,
    )
    if args.fail_accels:
        for token in args.fail_accels.split(","):
            plan = plan.fail_accelerator(int(token.strip()))
    report = run_reliability_trial(
        app,
        meta,
        plan,
        queries=args.queries,
        seed=args.seed,
        max_pages_per_channel=args.max_pages,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0


def _run_traced_query(args: argparse.Namespace):
    """Shared runner for ``trace``/``profile``: one instrumented query."""
    from repro.core.event_query import EventQuerySimulator
    from repro.obs import MetricsRegistry, Tracer
    from repro.ssd import Ssd
    from repro.workloads import get_app

    app = get_app(args.app)
    ssd = Ssd()
    meta = ssd.ftl.create_database(app.feature_bytes, args.features)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = EventQuerySimulator().run(
        app,
        meta,
        max_pages_per_channel=args.max_pages,
        tracer=tracer,
        metrics=metrics,
    )
    return app, result, tracer, metrics


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one event-driven query with tracing; export + explain it."""
    from repro.analysis.reporting import ascii_series
    from repro.obs import (
        profile_resources,
        query_breakdown,
        utilization_timelines,
        write_chrome_trace,
    )

    app, result, tracer, metrics = _run_traced_query(args)
    write_chrome_trace(tracer, args.out)
    breakdown = query_breakdown(result)
    if args.json:
        print(json.dumps({
            "app": app.name,
            "features": args.features,
            "trace_file": args.out,
            "spans": tracer.span_count,
            "instants": len(tracer.instants),
            "sim_events": tracer.count("sim.event"),
            "breakdown": breakdown.as_dict(),
            "metrics": metrics.snapshot(),
        }, indent=2, sort_keys=True))
        return 0
    breakdown.table(
        f"Per-query latency breakdown ({app.name}, {result.pages} pages)"
    ).print()
    print(f"\ntrace: {args.out} ({tracer.span_count} spans, "
          f"{len(tracer.instants)} instants, "
          f"{tracer.count('sim.event')} sim events) — open in "
          f"chrome://tracing or https://ui.perfetto.dev")
    timelines = utilization_timelines(tracer, bins=args.bins)
    print("\n== Utilization (busy fraction vs sim time, busiest first) ==")
    for usage in profile_resources(tracer, end=result.scan_seconds, top=args.top):
        series = timelines.get(usage.name)
        if not series:
            continue
        bar = ascii_series(series, width=args.bins)
        print(f"{usage.name:24s} {bar} {usage.utilization * 100:5.1f}%")
    return 0


def _cmd_profile_hotspots(args: argparse.Namespace) -> int:
    """Host-CPU hotspots of one query: cProfile over the simulator.

    Unlike the resource profile (simulated time), this measures where
    the *simulator itself* burns wall-clock.  Runs untraced so the
    inlined drain loop (the production configuration) is what gets
    measured.
    """
    import cProfile
    import pstats

    from repro.core.event_query import EventQuerySimulator
    from repro.sim import fastpath
    from repro.ssd import Ssd
    from repro.workloads import get_app

    if args.top < 1:  # a slice bound: -1 would drop the last row
        raise ValueError(f"top must be an integer >= 1, got {args.top}")
    app = get_app(args.app)
    ssd = Ssd()
    meta = ssd.ftl.create_database(app.feature_bytes, args.features)
    profiler = cProfile.Profile()
    profiler.enable()
    result = EventQuerySimulator().run(
        app, meta, max_pages_per_channel=args.max_pages
    )
    profiler.disable()
    if args.pstats_out:
        profiler.dump_stats(args.pstats_out)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    if args.json:
        rows = []
        for (filename, line, name), (cc, nc, tt, ct, _callers) in sorted(
            stats.stats.items(), key=lambda item: -item[1][3]
        )[: args.top]:
            rows.append({
                "function": name, "file": filename, "line": line,
                "ncalls": nc, "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            })
        print(json.dumps({
            "app": app.name,
            "fastpath_stats": dict(fastpath.stats),
            "scan_seconds": result.scan_seconds,
            "hotspots": rows,
        }, indent=2, sort_keys=True))
        return 0
    print(
        f"host-CPU hotspots ({app.name}, "
        f"simulated scan {result.scan_seconds:.6f}s)"
    )
    stats.print_stats(args.top)
    print(f"fastpath cache stats: {dict(fastpath.stats)}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Top-N busiest resources and idle-gap analysis of one query."""
    from repro.analysis import Table, format_seconds
    from repro.obs import profile_resources

    if args.hotspots:
        return _cmd_profile_hotspots(args)
    app, result, tracer, metrics = _run_traced_query(args)
    usages = profile_resources(tracer, end=result.scan_seconds, top=args.top)
    if args.json:
        print(json.dumps({
            "app": app.name,
            "scan_seconds": result.scan_seconds,
            "total_seconds": result.total_seconds,
            "resources": [u.as_dict() for u in usages],
            "metrics": metrics.snapshot(),
        }, indent=2, sort_keys=True))
        return 0
    table = Table(
        f"Busiest resources ({app.name}, scan "
        f"{format_seconds(result.scan_seconds)})",
        ["Resource", "Busy", "Util", "Spans", "Idle gaps", "Longest gap"],
    )
    for usage in usages:
        table.add_row(
            usage.name,
            format_seconds(usage.busy_seconds),
            f"{usage.utilization * 100:5.1f}%",
            usage.spans,
            usage.idle_gaps,
            format_seconds(usage.longest_idle_gap_s),
        )
    table.print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve an open-loop query stream; print the load-latency curve.

    Deterministic in ``--seed`` and the config flags: the same command
    reproduces the same curve byte for byte.  ``--scorecard`` emits the
    serving leg of the CI perf gate instead.
    """
    from repro.analysis.reporting import ascii_series
    from repro.obs import MetricsRegistry, Tracer
    from repro.serving import (
        ServingConfig,
        curve_table,
        drop_timeline,
        queue_depth_timeline,
        serving_metrics_snapshot,
        sweep_offered_load,
    )
    from repro.workloads import QueryStream, get_app

    config = ServingConfig(
        app=args.app,
        features=args.features,
        queue_bound=args.queue_bound,
        policy=args.policy,
        deadline_s=args.deadline_ms * 1e-3 if args.deadline_ms else None,
        max_batch=args.max_batch,
        n_servers=args.servers,
        cache_entries=args.cache_entries,
        cache_threshold=args.threshold,
        failed_accels=tuple(
            int(token) for token in args.fail_accels.split(",") if token.strip()
        ),
        fidelity=args.fidelity,
    )
    stream = None
    if config.cache_entries > 0:
        app = get_app(args.app)
        stream = QueryStream(
            dim=min(256, app.feature_floats),
            n_intents=args.intents,
            distribution="zipf",
            alpha=0.8,
            paraphrase_noise=0.05,
            seed=args.seed,
        )
    metrics = MetricsRegistry()
    tracer = Tracer()
    curve = sweep_offered_load(
        config,
        n_queries=args.queries,
        seed=args.seed,
        # None sweeps the saturation-relative ladder
        qps_points=[args.qps] if args.qps is not None else None,
        stream=stream,
        metrics=metrics,
        tracer=tracer,
    )
    if args.json:
        print(json.dumps({
            "config": {
                "app": config.app,
                "features": config.features,
                "queue_bound": config.queue_bound,
                "policy": config.policy,
                "max_batch": config.max_batch,
                "n_servers": config.n_servers,
                "cache_entries": config.cache_entries,
                "failed_accels": list(config.failed_accels),
                "seed": args.seed,
                "queries": args.queries,
            },
            "curve": curve.as_dict(),
            "metrics": serving_metrics_snapshot(metrics),
        }, indent=2, sort_keys=True))
        return 0
    curve_table(curve).print()
    depth = queue_depth_timeline(tracer, bins=args.bins)
    drops = drop_timeline(tracer, bins=args.bins)
    if depth:
        print(f"\nqueue depth  {ascii_series(depth, width=args.bins)} "
              f"(top offered load; sweep peak "
              f"{max(p.queue_peak for p in curve.points)})")
    if any(drops):
        drop_bar = ascii_series([float(d) for d in drops], width=args.bins)
        print(f"drops/bin    {drop_bar} "
              f"(top offered load; {sum(drops)} drops)")
    knee = curve.knee_index()
    if knee < len(curve.points):
        print(f"\nknee: goodput first drops below 1.0 at "
              f"{curve.points[knee].offered_qps:.2f} offered qps "
              f"(saturation ~{curve.saturation_qps:.2f} qps)")
    else:
        print(f"\nno saturation within the sweep "
              f"(saturation ~{curve.saturation_qps:.2f} qps)")
    return 0


def _parse_fail_shards(text: str):
    """``"0,3:1"`` -> ((0, 0), (3, 1)): shard or shard:replica tokens."""
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            shard, replica = token.split(":", 1)
            specs.append((int(shard), int(replica)))
        else:
            specs.append(int(token))
    return tuple(specs)


def _cluster_config(args: argparse.Namespace, **extra):
    """The ``ClusterConfig`` of the shared cluster flags plus ``extra``."""
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        n_shards=args.shards,
        n_replicas=args.replicas,
        seed=args.seed,
        hedge_fraction=args.hedge if args.hedge > 0 else None,
        straggler_spread=args.straggler,
        fail_shards=_parse_fail_shards(args.fail_shards),
        **extra,
    )


def _random_features(app, args: argparse.Namespace):
    """``(rng, rows)``: the ``--seed`` generator and ``--features`` rows."""
    rng = np.random.default_rng(args.seed)
    rows = rng.normal(0, 1, (args.features, app.feature_floats))
    return rng, rows.astype(np.float32)


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Scatter-gather queries over a sharded, replicated cluster.

    Deterministic in ``--seed`` and the config flags: the same command
    reproduces the same output byte for byte.  ``--scorecard`` emits
    the cluster leg of the CI perf gate instead.
    """
    from repro.cluster import DeepStoreCluster, cluster_metrics_snapshot
    from repro.obs import MetricsRegistry
    from repro.workloads import get_app, plant_neighbors, train_scn

    app = get_app(args.app)
    config = _cluster_config(args, placement=args.placement, level=args.level)
    rng, features = _random_features(app, args)
    intent = rng.normal(0, 1, app.feature_floats).astype(np.float32)
    features, planted = plant_neighbors(
        features, intent, k=args.k // 2 or 1, noise=0.2, seed=args.seed + 1
    )
    metrics = MetricsRegistry()
    cluster = DeepStoreCluster(config, metrics=metrics)
    db = cluster.write_db(features)
    model = cluster.load_graph(train_scn(app, seed=args.seed))
    if args.cache_threshold > 0:
        cluster.set_qc(args.cache_threshold)
    results = []
    for q in range(args.queries):
        qfv = intent + rng.normal(0, 0.2, app.feature_floats).astype(
            np.float32
        )
        results.append(cluster.query(qfv, args.k, model, db))

    placement = cluster.placement_of(db)
    if args.json:
        print(json.dumps({
            "config": {
                "app": args.app,
                "features": args.features,
                "k": args.k,
                "queries": args.queries,
                "seed": args.seed,
                "shards": config.n_shards,
                "replicas": config.n_replicas,
                "placement": config.placement,
                "level": config.level,
                "dead_replicas": [list(d) for d in config.dead_replicas()],
                "hedge_fraction": config.hedge_fraction,
                "straggler_spread": config.straggler_spread,
            },
            "shard_sizes": list(placement.shard_sizes),
            "queries": [r.to_dict() for r in results],
            "metrics": cluster_metrics_snapshot(metrics),
        }, indent=2, sort_keys=True))
        return 0

    print(f"cluster: {config.describe()}")
    print(f"placement: {placement.strategy}, shard sizes "
          f"{list(placement.shard_sizes)} "
          f"(imbalance {placement.imbalance:.2f}x)")
    recall_hits = 0
    for q, result in enumerate(results):
        recall_hits += len(
            set(result.feature_ids.tolist()) & set(planted.tolist())
        )
        flags = []
        if result.partial:
            flags.append(
                f"PARTIAL ({result.unavailable_shards} shard(s) unavailable)"
            )
        if result.failovers:
            flags.append(f"{result.failovers} failover(s)")
        if result.hedges_launched:
            flags.append(
                f"{result.hedges_launched} hedge(s), {result.hedge_wins} won"
            )
        if result.cache_hit:
            flags.append("cache hit")
        extra = f" [{', '.join(flags)}]" if flags else ""
        print(f"query {q}: {result.seconds * 1e3:8.3f} ms "
              f"(scatter {result.scatter_seconds * 1e6:6.2f} us, "
              f"slowest shard {result.makespan_seconds * 1e3:7.3f} ms, "
              f"gather {result.gather_seconds * 1e6:6.2f} us, "
              f"{result.merge.comparisons} cmp){extra}")
    total_planted = len(planted) * len(results)
    print(f"recall of planted neighbors: {recall_hits}/{total_planted}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """IVF ANN probes over the accelerator hierarchy.

    Builds an inverted-file index over a clustered workload (build cost
    priced through the page-mapped FTL write path), then sweeps
    ``nprobe`` per accelerator level: recall@K against the exhaustive
    scan vs the modelled probe latency, with the operating point
    re-validated on the event-driven timeline.  ``--scorecard`` emits
    the index leg of the CI perf gate instead.
    """
    from repro.index.scorecard import (
        IndexGateConfig,
        RECALL_GATE,
        build_index_scorecard,
    )

    card = build_index_scorecard(IndexGateConfig(
        app=args.app,
        n_features=args.features,
        n_lists=args.lists,
        k=args.k,
        n_queries=args.queries,
        seed=args.seed,
    ))

    if args.json:
        print(json.dumps(card, indent=2, sort_keys=True, default=float))
        return 0

    build = card["build"]
    print(f"IVF index: {args.app}, {args.features} rows, "
          f"{args.lists} lists, seed {args.seed}")
    print(f"build: {build['total_seconds'] * 1e3:.2f} ms modelled "
          f"({build['train_seconds'] * 1e3:.2f} train + "
          f"{build['layout_write_seconds'] * 1e3:.2f} layout, "
          f"WA {build['write_amplification']:.2f}, "
          f"{build['region_blocks']} region blocks)")
    print()
    print("recall/latency frontier (vs exhaustive scan at the same level):")
    print("  level    nprobe  recall@k   seconds    speedup")
    for level, points in card["pareto"].items():
        for key in sorted(points, key=lambda s: int(s.split("=")[1])):
            p = points[key]
            print(f"  {level:8s} {int(key.split('=')[1]):6d}"
                  f"  {p['recall_at_k']:8.3f}  {p['seconds']:.3e}"
                  f"  {p['speedup']:8.2f}x")
    op = card["operating_point"]
    des = card["des"]
    print()
    print(f"operating point (recall >= {RECALL_GATE}): nprobe={op['nprobe']} "
          f"at {op['level']} level, recall {op['recall_at_k']:.3f}, "
          f"{op['speedup']:.2f}x analytic")
    print(f"DES timeline: {des['probed_pages']}/{des['full_pages']} pages "
          f"scanned, {des['event_speedup']:.2f}x event-time speedup")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Online ingest & data lifecycle: mutate a database while querying.

    Runs the deterministic staleness → compaction → interference loop
    (:func:`repro.ingest.run_lifecycle`) and reports what mutating the
    database actually cost: clustered-layout recall drifting as the
    delta region grows, the preemptible compaction that restores it,
    and the measured write-amplification feeding query slowdown.
    ``--scorecard`` emits the ingest leg of the CI perf gate instead.
    """
    from repro.ingest import LifecycleConfig, run_lifecycle

    config = LifecycleConfig(
        app=args.app,
        n_base=args.base,
        rounds=args.rounds,
        probe_queries=args.queries,
        k=args.k,
        seed=args.seed,
    )
    report = run_lifecycle(config)

    if args.json:
        payload = report.as_dict()
        payload["config"] = {
            "app": args.app,
            "base": args.base,
            "rounds": args.rounds,
            "queries": args.queries,
            "k": args.k,
            "seed": args.seed,
        }
        payload["metrics"] = {
            key: value
            for key, value in report.metrics.items()
            if key.startswith("ingest.")
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
        return 0

    print(f"Ingest lifecycle: {args.app}, {config.n_base} base rows, "
          f"{config.rounds} mutation rounds, seed {config.seed}")
    print()
    print("staleness (clustered-scan recall vs exact snapshot top-K):")
    print("  round  delta%  stale recall  +delta recall")
    for point in report.staleness:
        print(f"  {point.round:5d}  {point.delta_fraction * 100:5.1f}"
              f"  {point.stale_recall:12.3f}"
              f"  {point.with_delta_recall:13.3f}")
    comp = report.compaction
    print()
    print(f"compaction: {comp.rows_rewritten} rows rewritten, "
          f"{comp.reclaimed_rows} tombstones reclaimed "
          f"({comp.chunks} chunks, {comp.preemptions} preempted by queries, "
          f"{comp.duration_s * 1e3:.2f} ms on the DES timeline)")
    print(f"  recall {report.staleness[-1].stale_recall:.3f} -> "
          f"{report.post_compaction_recall:.3f} "
          f"(fresh-layout baseline {report.fresh_baseline_recall:.3f})")
    print()
    print(f"write path: WA {report.write_amplification:.3f} "
          f"({report.host_writes} host pages, "
          f"{report.gc_relocations} GC relocations, "
          f"{report.gc_erases} erases, {report.mutations} mutations)")
    print("interference (query slowdown vs background ingest load):")
    for point in report.interference:
        print(f"  raw {point.raw_load:4.2f} -> "
              f"offered {point.offered_load:4.2f}: "
              f"{point.slowdown:6.3f}x")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """A scripted production day of correlated failures.

    Runs the durability track (crashes against the WAL + checkpoint
    recovery path, :func:`repro.chaos.run_durability_chaos`) and the
    availability track (replica kill storms, retry ladders, breakers,
    brownout, :func:`repro.chaos.run_cluster_chaos`) and reports the
    MTTR / durability / recall-under-chaos scorecard.  ``--scorecard``
    emits the recovery leg of the CI perf gate instead.
    """
    from repro.chaos import (
        ChaosConfig,
        run_cluster_chaos,
        run_durability_chaos,
    )

    config = ChaosConfig(
        seed=args.seed,
        duration_s=args.duration,
        crashes=args.crashes,
        kills=args.kills,
        queries=args.queries,
    )
    durability = (
        run_durability_chaos(config)
        if args.track in ("durability", "both") else None
    )
    availability = (
        run_cluster_chaos(config)
        if args.track in ("cluster", "both") else None
    )

    if args.json:
        payload = {"seed": config.seed, "duration_s": config.duration_s}
        if durability is not None:
            payload["durability"] = durability.to_dict()
        if availability is not None:
            payload["availability"] = availability.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"chaos day: seed {config.seed}, "
          f"{config.duration_s * 1e3:.0f} ms simulated")
    if durability is not None:
        d = durability
        print()
        print(f"durability ({config.crashes} crash(es), "
              f"{d.mutations_acked} acked mutations):")
        for c in d.crashes:
            print(f"  crash @ {c.at_s * 1e3:7.2f} ms: "
                  f"replayed {c.records_replayed} record(s), "
                  f"MTTR {c.mttr_s * 1e3:.3f} ms, "
                  f"{'bit-equal' if c.bit_equal else 'DIVERGED'}")
        print(f"  checkpoints {d.checkpoints_taken}, "
              f"WAL {d.wal_records} record(s) / {d.wal_bytes_logged} B, "
              f"write amplification {d.wal_write_amplification:.3f}")
        print(f"  durability {d.durability:.3f}, "
              f"lost unacked {d.mutations_lost_unacked}, "
              f"delta-skip recall {d.delta_skip_recall:.3f}")
    if availability is not None:
        a = availability
        print()
        print(f"availability ({config.kills} kill(s), "
              f"{a.queries} queries):")
        print(f"  served {a.served}, shed {a.shed}, failed {a.failed} "
              f"-> availability {a.availability:.3f}, "
              f"recall {a.recall_mean:.3f}")
        for o in a.outages:
            print(f"  outage shard {o.shard} replica {o.replica} "
                  f"@ {o.killed_at_s * 1e3:7.2f} ms: "
                  f"resync {o.resync_records} record(s)"
                  f"{' (full snapshot)' if o.full_snapshot else ''}, "
                  f"MTTR {o.mttr_s * 1e3:.3f} ms")
        print(f"  partial answers {a.partial}, failovers {a.failovers}, "
              f"breaker transitions {a.breaker_transitions}, "
              f"brownout peak L{a.max_brownout_level} "
              f"({len(a.brownout_transitions)} transition(s))")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Critical-path attribution for one clustered query.

    Runs a small hardened cluster (hedging, retries, one dead replica
    by default — the interesting regime), traces every query with the
    distributed-trace collector, and decomposes the chosen query's
    end-to-end latency into named segments that sum **bit-exactly**
    (IEEE-754 ``==``) to the reported total.  ``--out`` writes the
    whole day's causal span forest as Chrome trace-event JSON.
    """
    from repro.cluster import DeepStoreCluster, RetryPolicy
    from repro.obs import (
        FleetAttribution,
        TraceCollector,
        cluster_critical_path,
        write_dtrace,
    )
    from repro.workloads import get_app, train_scn

    app = get_app(args.app)
    config = _cluster_config(args, retry_policy=RetryPolicy())
    if not 0 <= args.query_id < args.queries:
        raise ValueError(
            f"query id {args.query_id} out of range "
            f"(ran {args.queries} queries)"
        )

    rng, features = _random_features(app, args)
    dtrace = TraceCollector()
    cluster = DeepStoreCluster(config)
    db = cluster.write_db(features)
    model = cluster.load_graph(train_scn(app, seed=args.seed))
    results = []
    for q in range(args.queries):
        qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
        results.append(cluster.query(qfv, args.k, model, db, dtrace=dtrace))

    paths = [cluster_critical_path(r) for r in results]
    fleet = FleetAttribution()
    for path in paths:
        fleet.add(path)
    path = paths[args.query_id]
    result = results[args.query_id]

    if args.out:
        write_dtrace(dtrace, args.out)
    if args.json:
        print(json.dumps({
            "query_id": args.query_id,
            "seconds": result.seconds,
            "bit_exact": path.bit_exact,
            "critical_path": path.as_dict(),
            "fleet": fleet.as_dict(),
            "trace": {
                "spans": dtrace.span_count,
                "traces": len(dtrace.trace_ids()),
            },
        }, indent=2, sort_keys=True))
        return 0

    print(f"query {args.query_id}: {result.seconds * 1e3:.3f} ms "
          f"end-to-end ({config.describe()})")
    print(path.table().render())
    check = "bit-exact" if path.bit_exact else "NOT bit-exact"
    print(f"segment sum: {path.component_sum() * 1e3:.6f} ms ({check})")
    dominant = fleet.dominant_at(99.0)
    print(f"fleet p99 dominant segment: {dominant['dominant']} "
          f"({dominant['share'] * 100:.1f}% of tail seconds, "
          f"{dominant['queries']} tail queries)")
    if args.out:
        print(f"wrote Chrome trace: {args.out}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """SLO burn-rate monitoring over a chaos day.

    Replays the availability chaos track with the stock monitor
    (availability + latency SLOs, fast-burn alert rules) and reports
    the windows, error budgets, every alert that fired, and the
    detection time: how long after the first injected kill the first
    alert fired.  ``--json`` emits the machine-readable report CI
    archives.
    """
    from repro.chaos import ChaosConfig, run_cluster_chaos

    config = ChaosConfig(
        seed=args.seed,
        duration_s=args.duration,
        kills=args.kills,
        queries=args.queries,
    )
    report = run_cluster_chaos(config)

    payload = {
        "seed": config.seed,
        "duration_s": config.duration_s,
        "availability": report.availability,
        "served": report.served,
        "queries": report.queries,
        "first_fault_s": report.first_fault_s,
        "first_alert_s": report.first_alert_s,
        "alert_latency_s": report.alert_latency_s,
        "slo": report.slo,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"slo monitor: seed {config.seed}, "
          f"{config.duration_s * 1e3:.0f} ms chaos day, "
          f"{config.kills} kill(s), {report.queries} queries")
    slos = report.slo.get("slos", {})
    for name, block in sorted(slos.items()):
        print(f"  {name}: target {block['target']:.2f}, "
              f"{block['events']} event(s), {block['bad']} bad, "
              f"budget remaining {block['budget_remaining']:+.2f}"
              f"{' VIOLATED' if block['violated'] else ''}")
    alerts = report.alerts
    print(f"  alerts fired: {len(alerts)}")
    for alert in alerts:
        print(f"    {alert.rule} @ {alert.at_s * 1e3:7.2f} ms "
              f"(burn {alert.burn_rate:.2f}x, "
              f"{alert.bad}/{alert.total} bad)")
    if report.alert_latency_s is not None:
        print(f"  first kill @ {report.first_fault_s * 1e3:.2f} ms, "
              f"first alert @ {report.first_alert_s * 1e3:.2f} ms "
              f"-> detection in {report.alert_latency_s * 1e3:.2f} ms")
    elif report.first_fault_s is not None:
        print(f"  first kill @ {report.first_fault_s * 1e3:.2f} ms, "
              f"no alert fired after it")
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    """Multi-tenant production day on the shared serving plane.

    Plays the canonical three-tenant 24-hour diurnal trace — search
    flash crowd, scripted shard failure, skewed live ingest — through
    weighted-fair admission and the burn-rate autoscaler, and reports
    each tenant's day plus the noisy-neighbor isolation ratios.
    ``--trace`` summarizes the generated trace without running it;
    ``--scorecard`` emits the tenancy leg of the CI perf gate instead.
    """
    from repro.tenancy import (
        default_production_config,
        generate_day,
        offered_summary,
        run_production_day,
    )
    from repro.tenancy.trace import peak_window_qps

    config = default_production_config(
        seed=args.seed, day_s=args.day, features=args.features
    )

    if args.trace:
        arrivals = generate_day(config)
        summary = offered_summary(arrivals)
        payload = {
            "day_s": config.day_s,
            "seed": config.seed,
            "arrivals": len(arrivals),
            "peak_window_qps": peak_window_qps(arrivals),
            "tenants": summary,
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"trace: {len(arrivals)} arrivals over "
              f"{config.day_s / 3600.0:.1f} h (seed {config.seed}), "
              f"peak {payload['peak_window_qps']:.3f} qps")
        for name, row in sorted(summary.items()):
            print(f"  {name}: {row['offered']} offered "
                  f"({row['queries']} queries, {row['writes']} writes, "
                  f"{row['burst']} burst)")
        return 0

    report = run_production_day(config, isolation=not args.no_isolation)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0

    day = report.result
    print(f"production day: {len(config.tenants)} tenants, "
          f"{config.day_s / 3600.0:.1f} h, seed {config.seed}, "
          f"{config.features:,} rows x {config.n_shards} shards")
    for name, t in sorted(day.tenants.items()):
        spec = config.tenant(name)
        print(f"  {name} ({spec.deadline_class}, weight {spec.weight:g}): "
              f"{t.offered} offered, {t.completed} completed, "
              f"{t.shed} shed, p99 {t.p99_s:.3f} s, "
              f"SLO attainment {t.slo_attainment:.4f}"
              f"{'' if t.conserved else ' LEDGER IMBALANCE'}")
    print(f"  autoscaler: peak {day.peak_backends} backend(s), "
          f"{sum(1 for a in day.actions if a.kind == 'scale_up')} up / "
          f"{sum(1 for a in day.actions if a.kind == 'scale_down')} down, "
          f"{day.alerts} alert(s)")
    for action in day.actions:
        trigger = (
            f" ({action.trigger_tenant}, burn {action.trigger_burn:.1f}x)"
            if action.kind == "scale_up" else ""
        )
        print(f"    {action.at_s / 3600.0:5.2f} h {action.kind} "
              f"{action.backends_before}->{action.backends_after}"
              f"{trigger}")
    print(f"  ingest: {day.rebalances} rebalance(s), "
          f"{day.rebalance_rows_moved} rows moved")
    ratios = report.isolation_ratios()
    if ratios:
        pairs = ", ".join(
            f"{name} {ratio:.2f}x" for name, ratio in sorted(ratios.items())
        )
        print(f"  isolation (victim p99 with/without {report.aggressor}): "
              f"{pairs}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import DeepStoreDevice
    from repro.analysis import format_seconds
    from repro.workloads import get_app, plant_neighbors, train_scn

    app = get_app(args.app)
    rng, features = _random_features(app, args)
    intent = rng.normal(0, 1, app.feature_floats).astype(np.float32)
    features, planted = plant_neighbors(features, intent, k=5, noise=0.2, seed=2)
    qfv = intent + rng.normal(0, 0.2, app.feature_floats).astype(np.float32)

    device = DeepStoreDevice(level=args.level)
    db = device.write_db(features)
    print(f"Training {app.name} SCN...")
    model = device.load_graph(train_scn(app, seed=args.seed))
    result = device.get_results(device.query(qfv, 10, model, db))
    recall = len(set(result.feature_ids.tolist()) & set(planted.tolist()))
    print(f"top-10: {result.feature_ids.tolist()}")
    print(f"recall of planted neighbors: {recall}/5")
    print(f"modelled latency: {format_seconds(result.seconds)} "
          f"({result.latency.bound}-bound, {result.latency.accel_count} accels)")
    return 0


def _add_scorecard(parser: argparse.ArgumentParser, leg: str) -> None:
    """Add ``--scorecard``, which prints perf-gate leg ``leg`` instead."""
    parser.add_argument(
        "--scorecard", action="store_true",
        help=f"print the {leg} leg of the CI perf gate (JSON): its fixed "
             f"gate scenario, whatever the other flags say",
    )
    parser.set_defaults(leg=leg)


def _add_cluster_args(
    parser: argparse.ArgumentParser, shards: int, replicas: int,
    hedge: float, straggler: float, fail_shards: str,
) -> None:
    """Add the cluster-shape flags :func:`_cluster_config` reads."""
    parser.add_argument("--shards", type=int, default=shards,
                        help="dataset partitions (one SSD group each)")
    parser.add_argument("--replicas", type=int, default=replicas,
                        help="replica SSDs per shard")
    parser.add_argument("--hedge", type=float, default=hedge,
                        help="hedge fraction (>0 enables hedged requests)")
    parser.add_argument("--straggler", type=float, default=straggler,
                        help="deterministic replica straggler spread")
    parser.add_argument("--fail-shards", default=fail_shards,
                        help="dead replicas: comma-separated shard or "
                             "shard:replica tokens (e.g. '0,3:1')")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepStore reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="versions, geometry, placements")
    sub.add_parser("table1", help="application characteristics")
    sub.add_parser("breakdown", help="GPU+SSD time breakdown (Fig. 2)")

    speedup = sub.add_parser("speedup", help="Table-4 speedups")
    speedup.add_argument("--app", choices=APPS)
    speedup.add_argument("--gigabytes", type=float, default=25.0)

    sub.add_parser("dse", help="PE scaling (Fig. 6)")

    cache = sub.add_parser("cache", help="query-cache simulation")
    cache.add_argument("--distribution", choices=["uniform", "zipf"], default="zipf")
    cache.add_argument("--alpha", type=float, default=0.7)
    cache.add_argument("--entries", type=int, default=512)
    cache.add_argument("--intents", type=int, default=2000)
    cache.add_argument("--queries", type=int, default=1200)
    cache.add_argument("--threshold", type=float, default=0.10)
    cache.add_argument("--scan-ms", type=float, default=30.0)

    plan = sub.add_parser("plan", help="deployment capacity planning")
    plan.add_argument("--app", default="tir", choices=APPS)
    plan.add_argument("--features", type=int, default=10_000_000)
    plan.add_argument("--qps", type=float, default=1.0)

    scorecard = sub.add_parser(
        "scorecard", help="measured-vs-paper reproduction scorecard"
    )
    scorecard.add_argument("--gigabytes", type=float, default=25.0)
    scorecard.add_argument("--json", action="store_true")

    faults = sub.add_parser(
        "faults", help="fault-injected queries + reliability report"
    )
    faults.add_argument("--app", default="tir", choices=APPS)
    faults.add_argument("--features", type=int, default=20_000,
                        help="database size in feature vectors")
    faults.add_argument("--queries", type=int, default=5)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--retry-rate", type=float, default=0.02,
                        help="NAND page read-retry probability")
    faults.add_argument("--crc-rate", type=float, default=0.0,
                        help="channel-bus CRC error probability")
    faults.add_argument("--chip-rate", type=float, default=0.0,
                        help="ambient chip hard-failure probability")
    faults.add_argument("--fail-accels", default="",
                        help="comma-separated accelerator indices to kill")
    faults.add_argument("--max-pages", type=int, default=None,
                        help="cap pages scanned per channel")
    faults.add_argument("--json", action="store_true")

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", default="tir", choices=APPS)
        p.add_argument("--features", type=int, default=20_000,
                       help="database size in feature vectors")
        p.add_argument("--max-pages", type=int, default=64,
                       help="cap pages scanned per channel")
        p.add_argument("--top", type=int, default=8,
                       help="resources to show, busiest first")
        p.add_argument("--json", action="store_true")

    trace = sub.add_parser(
        "trace", help="traced query: Chrome trace JSON + latency breakdown"
    )
    add_obs_args(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON output path")
    trace.add_argument("--bins", type=int, default=40,
                       help="utilization timeline resolution")

    profile = sub.add_parser(
        "profile", help="busiest resources + idle-gap analysis"
    )
    add_obs_args(profile)
    profile.add_argument("--hotspots", action="store_true",
                         help="host-CPU cProfile of the query instead of "
                              "simulated-resource usage")
    profile.add_argument("--pstats-out", default="",
                         help="with --hotspots: dump raw pstats here "
                              "(CI uploads it as an artifact)")

    serve = sub.add_parser(
        "serve", help="open-loop serving sweep / perf scorecard"
    )
    serve.add_argument("--app", default="tir", choices=APPS)
    serve.add_argument("--features", type=int, default=400_000,
                       help="database size in feature vectors")
    serve.add_argument("--queries", type=int, default=240,
                       help="queries per sweep point")
    serve.add_argument("--qps", type=float, default=None,
                       help="one offered load instead of the sweep "
                            "around saturation")
    serve.add_argument("--queue-bound", type=int, default=32,
                       help="admission queue bound")
    serve.add_argument("--policy", default="reject",
                       choices=["reject", "drop-oldest", "deadline"],
                       help="load-shedding policy")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="staleness bound for the deadline policy")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="largest shared-scan batch")
    serve.add_argument("--servers", type=int, default=1,
                       help="independent scan backends")
    serve.add_argument("--cache-entries", type=int, default=0,
                       help="query-cache entries (0 = no cache)")
    serve.add_argument("--threshold", type=float, default=0.10,
                       help="query-cache error threshold")
    serve.add_argument("--intents", type=int, default=200,
                       help="distinct query intents (cache streams)")
    serve.add_argument("--fail-accels", default="",
                       help="comma-separated accelerator indices to kill")
    serve.add_argument("--fidelity", default="analytic",
                       choices=["analytic", "event"],
                       help="batch cost model fidelity")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--bins", type=int, default=40,
                       help="timeline resolution")
    _add_scorecard(serve, "serving")
    serve.add_argument("--json", action="store_true")

    cluster = sub.add_parser(
        "cluster", help="sharded scatter-gather queries / perf scorecard"
    )
    cluster.add_argument("--app", default="tir", choices=APPS)
    cluster.add_argument("--features", type=int, default=20_000,
                         help="total dataset size in feature vectors")
    _add_cluster_args(cluster, shards=4, replicas=1, hedge=0.0,
                      straggler=0.0, fail_shards="")
    cluster.add_argument("--placement", default="range",
                         choices=["range", "hash", "locality"],
                         help="shard placement strategy")
    cluster.add_argument("--level", default="channel",
                         choices=["ssd", "channel", "chip"],
                         help="accelerator level inside every shard SSD")
    cluster.add_argument("--k", type=int, default=10, help="global top-K")
    cluster.add_argument("--queries", type=int, default=3)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--cache-threshold", type=float, default=0.0,
                         help="setQC threshold on every shard (0 = off)")
    _add_scorecard(cluster, "cluster")
    cluster.add_argument("--json", action="store_true")

    ingest = sub.add_parser(
        "ingest", help="online ingest & data-lifecycle loop"
    )
    ingest.add_argument("--app", default="textqa", choices=APPS)
    ingest.add_argument("--base", type=int, default=1024,
                        help="base rows written before mutation begins")
    ingest.add_argument("--rounds", type=int, default=3,
                        help="mutation rounds (insert/delete/update batches)")
    ingest.add_argument("--queries", type=int, default=6,
                        help="probe queries per staleness measurement")
    ingest.add_argument("--k", type=int, default=10)
    ingest.add_argument("--seed", type=int, default=0)
    _add_scorecard(ingest, "ingest")
    ingest.add_argument("--json", action="store_true")

    index = sub.add_parser(
        "index", help="IVF ANN probes: recall/latency Pareto sweep"
    )
    index.add_argument("--app", default="textqa", choices=APPS)
    index.add_argument("--features", type=int, default=65536,
                       help="database rows in the clustered workload")
    index.add_argument("--lists", type=int, default=32,
                       help="inverted lists (k-means centroids)")
    index.add_argument("--k", type=int, default=10)
    index.add_argument("--queries", type=int, default=4,
                       help="probe queries averaged per sweep point")
    index.add_argument("--seed", type=int, default=7)
    _add_scorecard(index, "index")
    index.add_argument("--json", action="store_true")

    chaos = sub.add_parser(
        "chaos", help="scripted fault day: crashes, kills, recovery"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--duration", type=float, default=1.0,
                       help="simulated day length in seconds")
    chaos.add_argument("--crashes", type=int, default=3,
                       help="whole-store crashes on the durability track")
    chaos.add_argument("--kills", type=int, default=4,
                       help="replica kills on the availability track")
    chaos.add_argument("--queries", type=int, default=24,
                       help="probe queries on the availability track")
    chaos.add_argument("--track", default="both",
                       choices=["durability", "cluster", "both"])
    _add_scorecard(chaos, "recovery")
    chaos.add_argument("--json", action="store_true")

    explain = sub.add_parser(
        "explain", help="critical-path attribution for one traced query"
    )
    explain.add_argument("query_id", type=int, nargs="?", default=0,
                         help="which query of the traced run to explain")
    explain.add_argument("--app", default="tir", choices=APPS)
    explain.add_argument("--features", type=int, default=2_000,
                         help="total dataset size in feature vectors")
    _add_cluster_args(explain, shards=3, replicas=2, hedge=0.3,
                      straggler=0.5, fail_shards="1:0")
    explain.add_argument("--k", type=int, default=5)
    explain.add_argument("--queries", type=int, default=8,
                         help="queries in the traced run")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--out", default="",
                         help="write the Chrome trace-event JSON here")
    explain.add_argument("--json", action="store_true")

    slo = sub.add_parser(
        "slo", help="SLO burn-rate monitoring over a chaos day"
    )
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--duration", type=float, default=1.0,
                     help="simulated day length in seconds")
    slo.add_argument("--kills", type=int, default=4,
                     help="replica kills on the availability track")
    slo.add_argument("--queries", type=int, default=24)
    slo.add_argument("--json", action="store_true",
                     help="emit the machine-readable SLO report")

    tenants = sub.add_parser(
        "tenants", help="multi-tenant production day on the shared plane"
    )
    tenants.add_argument("--seed", type=int, default=0)
    tenants.add_argument("--day", type=float, default=86_400.0,
                         help="simulated day length in seconds")
    tenants.add_argument("--features", type=int, default=32_000_000,
                         help="database rows behind the shared plane")
    tenants.add_argument("--trace", action="store_true",
                         help="summarize the generated day trace only")
    tenants.add_argument("--no-isolation", action="store_true",
                         help="skip the paired noisy-neighbor runs")
    _add_scorecard(tenants, "tenancy")
    tenants.add_argument("--json", action="store_true")

    demo = sub.add_parser("demo", help="end-to-end functional query")
    demo.add_argument("--app", default="tir", choices=APPS)
    demo.add_argument("--level", default="channel",
                      choices=["ssd", "channel", "chip"])
    demo.add_argument("--features", type=int, default=10_000)
    demo.add_argument("--seed", type=int, default=0)
    return parser


COMMANDS = {
    "info": _cmd_info,
    "table1": _cmd_table1,
    "breakdown": _cmd_breakdown,
    "speedup": _cmd_speedup,
    "dse": _cmd_dse,
    "cache": _cmd_cache,
    "plan": _cmd_plan,
    "scorecard": _cmd_scorecard,
    "faults": _cmd_faults,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "ingest": _cmd_ingest,
    "index": _cmd_index,
    "chaos": _cmd_chaos,
    "explain": _cmd_explain,
    "slo": _cmd_slo,
    "tenants": _cmd_tenants,
    "demo": _cmd_demo,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    The one error boundary: every package error subclasses
    ``ValueError`` or ``RuntimeError`` (docs/api.md), so a bad argument
    that gets past argparse prints one ``error:`` line and exits 1.
    """
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "scorecard", False):
            from repro.analysis.scorecard import scorecard_legs

            # always machine-readable: this is the artifact CI gates on
            card = scorecard_legs()[args.leg]()
            print(json.dumps(card, indent=2, sort_keys=True))
            return 0
        return COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
