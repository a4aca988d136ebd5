#!/usr/bin/env python3
"""Host-time benchmark of record for the DeepStore reproduction.

Runs one workload (``cluster_read``, ``ingest_indexed`` or
``tenant_day``; see ``workloads.py``) from this process and prints every
metric by name and unit, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the median of several complete set-ups, then a closed timed phase of
``--seconds``.  ``--trace 1`` runs the same workload once untraced and
once with every layer's public functions wrapped in host-time spans
(``layers.py``), half of ``--seconds`` each, and reports the per-layer
metrics: self time per op, counts at the layer boundaries, simulated
statistics, the tracing overhead, and whether the traced run's
simulated-output fingerprint equals the untraced one's.  Spans are
written to ``perfbench/out/spans-<workload>.npz``.

Host speed on a shared machine drifts by tens of percent over seconds,
so every reported time is rescaled to the reference host's nominal
speed (see :class:`HostSpeed`); the raw times are printed alongside.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster_read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cluster_read", "ingest_indexed", "tenant_day")

#: complete set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3

#: seconds one :meth:`HostSpeed.sample` takes on the reference host
#: (2 vCPUs, Python 3.11, numpy 2.4 on OpenBLAS 0.3.31) at its nominal
#: speed; every reported time is rescaled to that speed
REFERENCE_SAMPLE_S = 0.0042

#: unit of every end-to-end metric
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _configure_environment() -> None:
    """One process, at most ``nproc`` BLAS threads, no fork-map workers.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc or 1)
    os.environ["REPRO_PARALLEL_SHARDS"] = "0"
    os.environ["REPRO_PARALLEL_SWEEP"] = "1"
    os.environ["REPRO_FASTPATH"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


class HostSpeed:
    """How fast the host runs right now, from a fixed unit of work.

    The unit is what the simulator does: event-heap churn in Python and
    small float32 GEMMs.  It is timed before every op and after the
    last; an op's time is multiplied by :data:`REFERENCE_SAMPLE_S` over
    the faster of the two samples around it.  An interruption lengthens
    one sample; a slow spell of the host slows both samples and the op
    alike, and cancels out.
    """

    HEAP_ITEMS = 3000
    GEMMS = 3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 512), dtype=np.float32)
        self._w = rng.standard_normal((512, 256), dtype=np.float32)
        self._np = np
        self.samples: List[float] = []

    def sample(self, units: int = 1) -> float:
        """Seconds per unit of work over ``units`` units; the result is
        also kept in :attr:`samples`."""
        t0 = perf_counter()
        for _ in range(units):
            heap: list = []
            for i in range(self.HEAP_ITEMS):
                heapq.heappush(heap, ((i * 2654435761) % 1000003, i))
            while heap:
                heapq.heappop(heap)
            for _ in range(self.GEMMS):
                self._np.maximum(self._a @ self._w, 0.0)
        seconds = (perf_counter() - t0) / units
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def units_after(op_seconds: float) -> int:
        """Units to sample after an op: about 2% of its length, so the
        sample's own jitter stays small next to long ops."""
        return max(1, int(0.02 * op_seconds / REFERENCE_SAMPLE_S))

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` as the reference host would have taken them."""
        return seconds * REFERENCE_SAMPLE_S / min(before, after)

    def factor(self) -> float:
        """Reference speed over this host's median speed so far."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    """sha256 over every program source file, path and bytes."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed: int) -> Dict[str, object]:
    """What produced this result: code, libraries, machine, inputs."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = json.dumps(workload.config(), sort_keys=True, default=repr)
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
    }


def timed_setup(cls, seed: int, speed: HostSpeed):
    """One complete set-up; returns (workload, raw s, rescaled s, window)."""
    workload = cls()
    before = speed.sample()
    t0 = perf_counter()
    workload.setup(seed)
    t1 = perf_counter()
    after = speed.sample()
    return workload, t1 - t0, speed.scale(t1 - t0, before, after), (t0, t1)


def timed_phase(workload, seconds: float, speed: HostSpeed, recorder=None) -> Dict[str, object]:
    """Run ops back to back for ``seconds`` (then to the next boundary).

    Between ops the host speed is sampled (a ``bench.calibration`` span
    when tracing); each op's time is rescaled by the samples around it.
    """
    ops = []
    scaled: List[float] = []
    errors: List[str] = []
    if recorder is not None:
        recorder.counts = {}
    start = perf_counter()
    last = speed.sample()
    i = 0
    while True:
        if recorder is not None:
            recorder.op_id = i
        try:
            op = workload.step(i)
        except Exception:  # a failing op is counted, and the run goes on
            errors.append(traceback.format_exc())
            op = None
        if recorder is not None:
            recorder.op_id = -1
            c0 = perf_counter()
        now = speed.sample(speed.units_after(op.latency_s if op is not None else 0.0))
        if recorder is not None:
            recorder.add("bench.calibration", c0, perf_counter())
        if op is not None:
            ops.append(op)
            scaled.append(speed.scale(op.latency_s, last, now))
        last = now
        i += 1
        if perf_counter() - start >= seconds and workload.boundary(i):
            break
    end = perf_counter()
    return {
        "ops": ops,
        "scaled": scaled,
        "errors": errors,
        "window": (start, end),
        "units": sum(op.units for op in ops) + len(errors),
        # ops per second of client-call time, at reference speed
        "ops_per_s": sum(op.units for op in ops) / sum(scaled) if scaled else 0.0,
        "raw_ops_per_s": sum(op.units for op in ops) / (end - start),
    }


def _kind_counts(phase) -> Dict[str, str]:
    """Per op kind: how many ran and their raw median latency."""
    kinds: Dict[str, List[float]] = {}
    for op in phase["ops"]:
        kinds.setdefault(op.kind, []).append(op.latency_s * 1e3)
    out = {
        kind: f"{len(ms)} x p50 {statistics.median(ms):.2f} ms"
        for kind, ms in kinds.items()
    }
    if phase["errors"]:
        out["error"] = str(len(phase["errors"]))
    return out


def run_untraced(cls, seed: int, seconds: float):
    """End-to-end metrics: median set-up, then the timed phase."""
    speed = HostSpeed()
    setups, raw_setups = [], []
    workload = None
    for _ in range(SETUPS):
        # drop the previous set-up first, so set-ups never overlap in memory
        workload = None
        gc.collect()
        workload, raw, scaled, _window = timed_setup(cls, seed, speed)
        raw_setups.append(raw)
        setups.append(scaled)
    phase = timed_phase(workload, seconds, speed)
    ms = [s * 1e3 for s in phase["scaled"]]
    raw_ms = [op.latency_s * 1e3 for op in phase["ops"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": _percentile(ms, 50),
        "op_p90_ms": _percentile(ms, 90),
        "ops_per_s": phase["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops": len(phase["ops"]),
        "kinds": _kind_counts(phase),
        "raw": (
            f"setup_s {statistics.median(raw_setups):.4f}  "
            f"op_p50_ms {_percentile(raw_ms, 50):.3f}  "
            f"op_p90_ms {_percentile(raw_ms, 90):.3f}  "
            f"ops_per_s {phase['raw_ops_per_s']:.4f}  "
            f"host speed factor {speed.factor():.4f}"
        ),
        "sim_digest": workload.digest(),
    }
    return workload, phase, metrics, notes


def run_traced(cls, seed: int, seconds: float):
    """Per-layer metrics from a traced run beside an untraced twin."""
    import layers
    from spans import SpanRecorder

    speed = HostSpeed()
    baseline = timed_setup(cls, seed, speed)[0]
    base_phase = timed_phase(baseline, seconds / 2, speed)
    base_digest = baseline.digest()
    baseline = None
    gc.collect()

    recorder = SpanRecorder()
    missing = layers.instrument(recorder)
    try:
        workload, _raw, _scaled, setup_window = timed_setup(cls, seed, speed)
        phase = timed_phase(workload, seconds / 2, speed, recorder)
    finally:
        recorder.unpatch()
    window = phase["window"]
    units = phase["units"]
    table, setup_rest, timed_rest = layers.layer_table(recorder, setup_window, window)
    counts = recorder.counts
    stats = workload.stats(phase["ops"])
    reads = stats.pop("reads", 0.0)
    digest = workload.digest()
    # host times at reference speed, like the end-to-end metrics
    factor = speed.factor()
    metrics = {
        name: value * factor
        for name, value in layers.layer_metrics(table, timed_rest, units).items()
    }
    metrics["tenancy.server_build_s"] = factor * layers.inclusive_seconds(
        recorder, "tenancy.server_build", setup_window
    )
    per_read = 1.0 / reads if reads else 0.0
    metrics["nn.score.rows_per_read"] = counts.get("nn.rows_scored", 0.0) * per_read
    lookups = counts.get("cache.lookups", 0.0)
    metrics["core.query_cache.hit_rate"] = counts.get("cache.hits", 0.0) / lookups if lookups else 0.0
    metrics["cluster.attempts_per_read"] = (
        layers.outermost_count(recorder, "core.device_query", window) * per_read
    )
    metrics["sim.events_per_op"] = counts.get("sim.events", 0.0) / max(units, 1)
    for name in (
        "cluster.hedge_wins", "cluster.failovers", "ssd.gc.write_amplification",
        "index.probed_rows_per_read", "tenancy.sim_p99_s", "tenancy.shed_frac",
        "tenancy.scale_actions",
    ):
        metrics[name] = float(stats.get(name, 0.0))
    metrics["trace.overhead_frac"] = 1.0 - phase["ops_per_s"] / base_phase["ops_per_s"]
    metrics["trace.digest_match"] = float(digest == base_digest)
    metrics["sim_digest"] = float(int(digest[:13], 16))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{cls.name}.npz")
    notes = {
        "ops": len(phase["ops"]),
        "kinds": _kind_counts(phase),
        "spans": len(recorder),
        "sim_digest": digest,
        "untraced_sim_digest": base_digest,
        "unwrapped": missing,
        "table": layers.format_table(table, setup_rest, timed_rest, units),
    }
    return workload, phase, metrics, notes


def per_layer_units() -> Dict[str, str]:
    """Units of the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its result; returns the exit code."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    runner = run_traced if trace else run_untraced
    workload, phase, metrics, notes = runner(cls, seed, seconds)
    failed_ops, failures, quality = workload.check()
    units = per_layer_units() if trace else UNITS
    if trace:
        # recall is measured by the oracle, on the workload that routes
        metrics["index.recall_at_10"] = quality.get("index.recall_at_10", 0.0)
    failed = failed_ops + len(phase["errors"])
    attempted = max(int(phase["units"]), 1)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops {notes['ops']} {notes['kinds']}")
    for key in ("raw", "spans", "unwrapped", "untraced_sim_digest"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    for line in notes.get("table", []):
        print("  " + line)
    for metric, value in metrics.items():
        print(f"  {metric:32s} {value:16.6f} {units.get(metric, '?')}")
    print(f"  sim_digest: {notes['sim_digest']}")
    print(f"  failed {failed} of {attempted}")
    for message in (failures + phase["errors"])[:10]:
        print("  FAIL " + message.strip().replace("\n", "\n       "), file=sys.stderr)
    print("provenance " + json.dumps(provenance(workload, seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units.get(metric, "?")}
            for metric, value in metrics.items()
        },
    }))
    return 0


def _layout_problem() -> Optional[str]:
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program sources not found under {SRC}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"BENCHMARK.json not found in {ROOT}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _layout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            child = subprocess.run([
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ])
            code = code or child.returncode
        return code
    _configure_environment()
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
