"""Command-line interface: ``python -m repro <command>``.

Small, self-contained runners over the library for the common
questions; ``python -m repro --help`` lists the commands.  Each command
is registered once, next to its ``_cmd_*`` runner, by :func:`command`:
its help line, its default for each shared flag it takes, its own flags
and, for a subsystem, the perf-gate leg its ``--scorecard`` prints.
:func:`build_parser` and :func:`main` both read that one registry.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: the five applications every ``--app`` flag chooses from
APPS = ("reid", "mir", "estp", "tir", "textqa")

#: The flags several commands take, each defined once: type, choices
#: and help.  A command takes one by giving its default to
#: :func:`command`.
SHARED_FLAGS: Dict[str, Dict[str, object]] = {
    "app": {"choices": APPS, "help": "application (Table 1 short name)"},
    "features": {"type": int, "help": "database size in feature vectors"},
    "gigabytes": {"type": float, "help": "database size in GB per app"},
    "queries": {"type": int, "help": "queries to run (serve: per load point)"},
    "qps": {"type": float, "help": "target queries per second (serve: one "
                                   "offered load instead of the sweep)"},
    "k": {"type": int, "help": "top-K"},
    "seed": {"type": int, "help": "random seed: the same seed and flags "
                                  "print the same output, byte for byte"},
    "intents": {"type": int, "help": "distinct query intents"},
    "threshold": {"type": float, "help": "query-cache error threshold"},
    "level": {"choices": ["ssd", "channel", "chip"],
              "help": "accelerator level"},
    "fail_accels": {"help": "comma-separated accelerator indices to kill"},
    "max_pages": {"type": int, "help": "cap pages scanned per channel"},
    "top": {"type": int, "help": "rows to show, busiest first"},
    "bins": {"type": int, "help": "timeline resolution"},
    "out": {"help": "Chrome trace-event JSON output path"},
    "shards": {"type": int, "help": "dataset partitions (one SSD group each)"},
    "replicas": {"type": int, "help": "replica SSDs per shard"},
    "hedge": {"type": float, "help": "hedge fraction (>0 enables hedging)"},
    "straggler": {"type": float, "help": "replica straggler spread"},
    "fail_shards": {"help": "dead replicas, e.g. '0,3:1' (shard[:replica])"},
    "duration": {"type": float, "help": "simulated day length in seconds"},
    "kills": {"type": int, "help": "replica kills on the availability track"},
    "json": {"action": "store_true", "help": "print the report as JSON"},
}

#: shared flags that count rows or bins: checked >= 1 before a command runs
_AT_LEAST_ONE = ("top", "bins")


def flag(*names: str, **kwargs: object):
    """One command-specific flag, as ``add_argument(*names, **kwargs)``."""
    return names, kwargs


class _Command(NamedTuple):
    """A registered subcommand (see :func:`command`)."""

    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple
    shared: Dict[str, object]
    leg: Optional[str]


#: subcommand name -> its registration, in ``--help`` order
_REGISTRY: Dict[str, _Command] = {}


def command(name: str, help: str, *flags, leg: Optional[str] = None,
            **shared: object):
    """Register the decorated runner as subcommand ``name``.

    ``flags`` are its own :func:`flag` flags; ``shared`` maps each
    :data:`SHARED_FLAGS` flag it takes to its default; ``leg`` names the
    perf-gate leg that ``--scorecard`` prints in place of its output.
    """
    def register(run):
        _REGISTRY[name] = _Command(run, help, flags, shared, leg)
        return run
    return register


def _print_json(payload: object) -> None:
    """Print a ``--json`` payload: the CLI's one JSON format."""
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))


def _flag_values(args: argparse.Namespace, *names: str) -> Dict[str, object]:
    """``{name: args.name}``: the flags a ``--json`` payload echoes."""
    return {name: getattr(args, name) for name in names}


@command("info", "versions, geometry, placements")
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


@command("table1", "application characteristics")
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


@command("breakdown", "GPU+SSD time breakdown (Fig. 2)")
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


@command("speedup", "Table-4 speedups", app=None, gigabytes=25.0)
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


@command("dse", "PE scaling (Fig. 6)")
def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.analysis import Table
    from repro.core.dse import explore_pe_scaling

    table = Table("Fig. 6: speedup vs #PEs", ["#PEs", "FC", "ConvD"])
    for pf, pc in zip(explore_pe_scaling("fc"), explore_pe_scaling("conv")):
        table.add_row(pf.num_pes, f"{pf.speedup:5.2f}x", f"{pc.speedup:5.2f}x")
    table.print()
    return 0


@command(
    "cache", "query-cache simulation",
    flag("--distribution", choices=["uniform", "zipf"], default="zipf"),
    flag("--alpha", type=float, default=0.7),
    flag("--entries", type=int, default=512),
    flag("--scan-ms", type=float, default=30.0),
    intents=2000, queries=1200, threshold=0.10,
)
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


@command("plan", "deployment capacity planning",
         app="tir", features=10_000_000, qps=1.0)
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


@command("scorecard", "measured-vs-paper reproduction scorecard",
         gigabytes=25.0, json=False)
def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.analysis.scorecard import build_scorecard

    card = build_scorecard(gigabytes=args.gigabytes)
    if args.json:  # the Scorecard's own format: keys in build order
        print(card.to_json())
    else:
        print(card.render())
    return 0 if card.structural_ok else 1


@command(
    "faults", "fault-injected queries + reliability report",
    flag("--retry-rate", type=float, default=0.02,
         help="NAND page read-retry probability"),
    flag("--crc-rate", type=float, default=0.0,
         help="channel-bus CRC error probability"),
    flag("--chip-rate", type=float, default=0.0,
         help="ambient chip hard-failure probability"),
    app="tir", features=20_000, queries=5, seed=0, fail_accels="",
    max_pages=None, json=False,
)
def _cmd_faults(args: argparse.Namespace) -> int:
    """Run fault-injected queries and print a reliability report."""
    from repro.analysis.reliability import run_reliability_trial
    from repro.faults import FaultPlan

    app, meta = _database(args)
    plan = FaultPlan(
        read_retry_rate=args.retry_rate,
        crc_error_rate=args.crc_rate,
        chip_failure_rate=args.chip_rate,
    )
    for accel in _parse_fail_accels(args.fail_accels):
        plan = plan.fail_accelerator(accel)
    report = run_reliability_trial(
        app,
        meta,
        plan,
        queries=args.queries,
        seed=args.seed,
        max_pages_per_channel=args.max_pages,
    )
    if args.json:
        _print_json(report.as_dict())
    else:
        print(report.render())
    return 0


def _database(args: argparse.Namespace):
    """``(app, meta)``: ``--app`` and a fresh ``--features``-row database."""
    from repro.ssd import Ssd
    from repro.workloads import get_app

    app = get_app(args.app)
    return app, Ssd().ftl.create_database(app.feature_bytes, args.features)


def _parse_fail_accels(text: str) -> Tuple[int, ...]:
    """``"0, 2"`` -> (0, 2): the ``--fail-accels`` indices."""
    accels = []
    for token in _tokens(text):
        try:
            accels.append(int(token))
        except ValueError:
            raise ValueError(
                f"--fail-accels: {token!r} is not an integer"
            ) from None
    return tuple(accels)


def _tokens(text: str) -> List[str]:
    """The non-blank tokens of a comma-separated list flag, stripped."""
    return [token.strip() for token in text.split(",") if token.strip()]


def _parse_fail_shards(text: str):
    """``"0,3:1"`` -> (0, (3, 1)): shard or shard:replica tokens."""
    specs = []
    for token in _tokens(text):
        try:
            if ":" in token:
                shard, replica = token.split(":", 1)
                specs.append((int(shard), int(replica)))
            else:
                specs.append(int(token))
        except ValueError:
            raise ValueError(
                f"--fail-shards: {token!r} is not shard or shard:replica"
            ) from None
    return tuple(specs)


def _run_traced_query(args: argparse.Namespace):
    """Shared runner for ``trace``/``profile``: one instrumented query."""
    from repro.core.event_query import EventQuerySimulator
    from repro.obs import MetricsRegistry, Tracer

    app, meta = _database(args)
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


@command(
    "trace", "traced query: Chrome trace JSON + latency breakdown",
    app="tir", features=20_000, max_pages=64, top=8, json=False,
    out="trace.json", bins=40,
)
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
        _print_json({
            "app": app.name,
            "features": args.features,
            "trace_file": args.out,
            "spans": tracer.span_count,
            "instants": len(tracer.instants),
            "sim_events": tracer.count("sim.event"),
            "breakdown": breakdown.as_dict(),
            "metrics": metrics.snapshot(),
        })
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

    app, meta = _database(args)
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
        _print_json({
            "app": app.name,
            "fastpath_stats": dict(fastpath.stats),
            "scan_seconds": result.scan_seconds,
            "hotspots": rows,
        })
        return 0
    print(
        f"host-CPU hotspots ({app.name}, "
        f"simulated scan {result.scan_seconds:.6f}s)"
    )
    stats.print_stats(args.top)
    print(f"fastpath cache stats: {dict(fastpath.stats)}")
    return 0


@command(
    "profile", "busiest resources + idle-gap analysis",
    flag("--hotspots", action="store_true",
         help="host-CPU cProfile of the query instead of "
              "simulated-resource usage"),
    flag("--pstats-out", default="",
         help="with --hotspots: dump raw pstats here "
              "(CI uploads it as an artifact)"),
    app="tir", features=20_000, max_pages=64, top=8, json=False,
)
def _cmd_profile(args: argparse.Namespace) -> int:
    """Top-N busiest resources and idle-gap analysis of one query."""
    from repro.analysis import Table, format_seconds
    from repro.obs import profile_resources

    if args.hotspots:
        return _cmd_profile_hotspots(args)
    app, result, tracer, metrics = _run_traced_query(args)
    usages = profile_resources(tracer, end=result.scan_seconds, top=args.top)
    if args.json:
        _print_json({
            "app": app.name,
            "scan_seconds": result.scan_seconds,
            "total_seconds": result.total_seconds,
            "resources": [u.as_dict() for u in usages],
            "metrics": metrics.snapshot(),
        })
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


@command(
    "serve", "open-loop serving sweep / perf scorecard",
    flag("--queue-bound", type=int, default=32,
         help="admission queue bound"),
    flag("--policy", default="reject",
         choices=["reject", "drop-oldest", "deadline"],
         help="load-shedding policy"),
    flag("--deadline-ms", type=float, default=None,
         help="staleness bound for the deadline policy"),
    flag("--max-batch", type=int, default=8,
         help="largest shared-scan batch"),
    flag("--servers", type=int, default=1,
         help="independent scan backends"),
    flag("--cache-entries", type=int, default=0,
         help="query-cache entries (0 = no cache)"),
    flag("--fidelity", default="analytic", choices=["analytic", "event"],
         help="batch cost model fidelity"),
    app="tir", features=400_000, queries=240, qps=None, threshold=0.10,
    intents=200, fail_accels="", seed=0, bins=40, json=False, leg="serving",
)
def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve an open-loop query stream; print the load-latency curve."""
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
        failed_accels=_parse_fail_accels(args.fail_accels),
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
        _print_json({
            "config": {
                "app": config.app,
                "features": config.features,
                "queue_bound": config.queue_bound,
                "policy": config.policy,
                "max_batch": config.max_batch,
                "n_servers": config.n_servers,
                "cache_entries": config.cache_entries,
                "failed_accels": list(config.failed_accels),
                **_flag_values(args, "seed", "queries"),
            },
            "curve": curve.as_dict(),
            "metrics": serving_metrics_snapshot(metrics),
        })
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


def _planted_features(app, args: argparse.Namespace, k: int, seed: int):
    """``(rng, intent, rows, planted)``: :func:`_random_features` rows
    with ``k`` near-copies of one random intent planted among them."""
    from repro.workloads import plant_neighbors

    rng, rows = _random_features(app, args)
    intent = rng.normal(0, 1, app.feature_floats).astype(np.float32)
    rows, planted = plant_neighbors(rows, intent, k=k, noise=0.2, seed=seed)
    return rng, intent, rows, planted


def _install(target, app, args: argparse.Namespace, rows):
    """``(db, model)``: ``rows`` written to a device or cluster, and the
    app's SCN, trained at ``--seed``, loaded on it."""
    from repro.workloads import train_scn

    db = target.write_db(rows)
    return db, target.load_graph(train_scn(app, seed=args.seed))


@command(
    "cluster", "sharded scatter-gather queries / perf scorecard",
    flag("--placement", default="range",
         choices=["range", "hash", "locality"],
         help="shard placement strategy"),
    flag("--cache-threshold", type=float, default=0.0,
         help="setQC threshold on every shard (0 = off)"),
    app="tir", features=20_000, shards=4, replicas=1, hedge=0.0,
    straggler=0.0, fail_shards="", level="channel", k=10, queries=3,
    seed=0, json=False, leg="cluster",
)
def _cmd_cluster(args: argparse.Namespace) -> int:
    """Scatter-gather queries over a sharded, replicated cluster."""
    from repro.cluster import DeepStoreCluster, cluster_metrics_snapshot
    from repro.obs import MetricsRegistry
    from repro.workloads import get_app

    app = get_app(args.app)
    config = _cluster_config(args, placement=args.placement, level=args.level)
    rng, intent, features, planted = _planted_features(
        app, args, k=args.k // 2 or 1, seed=args.seed + 1
    )
    metrics = MetricsRegistry()
    cluster = DeepStoreCluster(config, metrics=metrics)
    db, model = _install(cluster, app, args, features)
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
        _print_json({
            "config": {
                **_flag_values(args, "app", "features", "k", "queries", "seed"),
                "shards": config.n_shards,
                "replicas": config.n_replicas,
                "placement": config.placement,
                "level": config.level,
                "dead_replicas": [list(d) for d in config.fail_shards],
                "hedge_fraction": config.hedge_fraction,
                "straggler_spread": config.straggler_spread,
            },
            "shard_sizes": list(placement.shard_sizes),
            "queries": [r.to_dict() for r in results],
            "metrics": cluster_metrics_snapshot(metrics),
        })
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


@command(
    "ingest", "online ingest & data-lifecycle loop",
    flag("--base", type=int, default=1024,
         help="base rows written before mutation begins"),
    flag("--rounds", type=int, default=3,
         help="mutation rounds (insert/delete/update batches)"),
    app="textqa", queries=6, k=10, seed=0, json=False, leg="ingest",
)
def _cmd_ingest(args: argparse.Namespace) -> int:
    """Online ingest & data lifecycle: mutate a database while querying.

    Runs the deterministic staleness → compaction → interference loop
    (:func:`repro.ingest.run_lifecycle`) and reports what mutating the
    database actually cost: clustered-layout recall drifting as the
    delta region grows, the preemptible compaction that restores it,
    and the measured write-amplification feeding query slowdown.
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
        payload["config"] = _flag_values(
            args, "app", "base", "rounds", "queries", "k", "seed"
        )
        payload["metrics"] = {
            key: value
            for key, value in report.metrics.items()
            if key.startswith("ingest.")
        }
        _print_json(payload)
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


@command(
    "index", "IVF ANN probes: recall/latency Pareto sweep",
    flag("--lists", type=int, default=32,
         help="inverted lists (k-means centroids)"),
    app="textqa", features=65536, k=10, queries=4, seed=7, json=False,
    leg="index",
)
def _cmd_index(args: argparse.Namespace) -> int:
    """IVF ANN probes over the accelerator hierarchy.

    Builds an inverted-file index over a clustered workload (build cost
    priced through the page-mapped FTL write path), then sweeps
    ``nprobe`` per accelerator level: recall@K against the exhaustive
    scan vs the modelled probe latency, with the operating point
    re-validated on the event-driven timeline.
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
        _print_json(card)
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


def _chaos_config(args: argparse.Namespace, **extra):
    """The ``ChaosConfig`` of the shared chaos-day flags plus ``extra``."""
    from repro.chaos import ChaosConfig

    return ChaosConfig(seed=args.seed, duration_s=args.duration,
                       kills=args.kills, queries=args.queries, **extra)


@command(
    "chaos", "scripted fault day: crashes, kills, recovery",
    flag("--crashes", type=int, default=3,
         help="whole-store crashes on the durability track"),
    flag("--track", default="both",
         choices=["durability", "cluster", "both"]),
    seed=0, duration=1.0, kills=4, queries=24, json=False, leg="recovery",
)
def _cmd_chaos(args: argparse.Namespace) -> int:
    """A scripted production day of correlated failures.

    Runs the durability track (crashes against the WAL + checkpoint
    recovery path, :func:`repro.chaos.run_durability_chaos`) and the
    availability track (replica kill storms, retry ladders, breakers,
    brownout, :func:`repro.chaos.run_cluster_chaos`) and reports the
    MTTR / durability / recall-under-chaos scorecard.
    """
    from repro.chaos import run_cluster_chaos, run_durability_chaos

    config = _chaos_config(args, crashes=args.crashes)
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
        _print_json(payload)
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


@command(
    "explain", "critical-path attribution for one traced query",
    flag("query_id", type=int, nargs="?", default=0,
         help="which query of the traced run to explain"),
    app="tir", features=2_000, shards=3, replicas=2, hedge=0.3,
    straggler=0.5, fail_shards="1:0", k=5, queries=8, seed=0, out="",
    json=False,
)
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
    from repro.workloads import get_app

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
    db, model = _install(cluster, app, args, features)
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
        _print_json({
            "query_id": args.query_id,
            "seconds": result.seconds,
            "bit_exact": path.bit_exact,
            "critical_path": path.as_dict(),
            "fleet": fleet.as_dict(),
            "trace": {
                "spans": dtrace.span_count,
                "traces": len(dtrace.trace_ids()),
            },
        })
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


@command("slo", "SLO burn-rate monitoring over a chaos day",
         seed=0, duration=1.0, kills=4, queries=24, json=False)
def _cmd_slo(args: argparse.Namespace) -> int:
    """SLO burn-rate monitoring over a chaos day.

    Replays the availability chaos track with the stock monitor
    (availability + latency SLOs, fast-burn alert rules) and reports
    the windows, error budgets, every alert that fired, and the
    detection time: how long after the first injected kill the first
    alert fired.  ``--json`` emits the machine-readable report CI
    archives.
    """
    from repro.chaos import run_cluster_chaos

    config = _chaos_config(args)
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
        _print_json(payload)
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


@command(
    "tenants", "multi-tenant production day on the shared plane",
    flag("--day", type=float, default=86_400.0,
         help="simulated day length in seconds"),
    flag("--trace", action="store_true",
         help="summarize the generated day trace only"),
    flag("--no-isolation", action="store_true",
         help="skip the paired noisy-neighbor runs"),
    seed=0, features=32_000_000, json=False, leg="tenancy",
)
def _cmd_tenants(args: argparse.Namespace) -> int:
    """Multi-tenant production day on the shared serving plane.

    Plays the canonical three-tenant 24-hour diurnal trace — search
    flash crowd, scripted shard failure, skewed live ingest — through
    weighted-fair admission and the burn-rate autoscaler, and reports
    each tenant's day plus the noisy-neighbor isolation ratios.
    ``--trace`` summarizes the generated trace without running it.
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
            _print_json(payload)
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
        _print_json(report.as_dict())
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


@command("demo", "end-to-end functional query",
         app="tir", level="channel", features=10_000, seed=0)
def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import DeepStoreDevice
    from repro.analysis import format_seconds
    from repro.workloads import get_app

    app = get_app(args.app)
    rng, intent, features, planted = _planted_features(app, args, k=5, seed=2)
    qfv = intent + rng.normal(0, 0.2, app.feature_floats).astype(np.float32)

    device = DeepStoreDevice(level=args.level)
    print(f"Training {app.name} SCN...")
    db, model = _install(device, app, args, features)
    result = device.get_results(device.query(qfv, 10, model, db))
    recall = len(set(result.feature_ids.tolist()) & set(planted.tolist()))
    print(f"top-10: {result.feature_ids.tolist()}")
    print(f"recall of planted neighbors: {recall}/5")
    print(f"modelled latency: {format_seconds(result.seconds)} "
          f"({result.latency.bound}-bound, {result.latency.accel_count} accels)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree from the command registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepStore reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _REGISTRY.items():
        p = sub.add_parser(name, help=cmd.help)
        for shared, default in cmd.shared.items():
            p.add_argument("--" + shared.replace("_", "-"), default=default,
                           **SHARED_FLAGS[shared])
        for names, kwargs in cmd.flags:
            p.add_argument(*names, **kwargs)
        if cmd.leg is not None:
            p.add_argument(
                "--scorecard", action="store_true",
                help=f"print the {cmd.leg} leg of the CI perf gate (JSON): "
                     f"its fixed gate scenario, whatever the other flags say",
            )
            p.set_defaults(leg=cmd.leg)
    return parser


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
            _print_json(scorecard_legs()[args.leg]())
            return 0
        for name in _AT_LEAST_ONE:  # before any output or file is written
            value = getattr(args, name, 1)
            if value < 1:
                raise ValueError(f"--{name} must be an integer >= 1, "
                                 f"got {value}")
        return _REGISTRY[args.command].run(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
