"""Pinned outputs of the two admission-driven DES servers.

``MultiTenantServer`` (weighted-fair admission, cluster batch pricing,
autoscaler) and ``QueryServer`` (one bounded queue, ``deadline``
shedding) both drive ``AdmissionQueue`` on every arrival and dispatch.
Each test pins one run's full report by SHA-256.  Any change to who is
admitted, shed or batched, in what order, or at what priced service
time moves a digest.

The tenancy day is the ``tenant_day`` perfbench workload at seed 3, so
its digest is that workload's ``sim_digest``.  The serving run has cache
lookups in front of the queue: a miss joins it stamped ``lookup_s``
before ``now``, so arrivals reach the queue out of ``arrival_s`` order,
and the deadline sweep must still expire exactly the over-age ones.

The traced runs pin what a metered, traced ``QueryServer`` emits
besides its result: every ``serving.*`` instrument and every tracer
span and instant (queue depth, sheds, backend occupancy, one instant
per simulator event), with two backends and cache hits.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serving import QueryServer, ServingConfig, poisson_arrivals
from repro.tenancy.day import default_production_config
from repro.tenancy.server import MultiTenantServer
from repro.tenancy.trace import generate_day
from repro.workloads import QueryStream


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_tenancy_day_digest_pinned():
    config = default_production_config(seed=3)
    day = MultiTenantServer(config).run(generate_day(config))
    assert _sha256(day.as_dict()).startswith("0c8f2be6")


def test_deadline_serving_run_digest_pinned():
    config = ServingConfig(
        app="tir", features=50_000, queue_bound=8, max_batch=4,
        policy="deadline", deadline_s=0.02, cache_entries=32,
    )
    server = QueryServer(config)
    stream = QueryStream(
        dim=32, n_intents=400, distribution="zipf", alpha=0.9,
        paraphrase_noise=0.05, seed=2,
    )
    arrivals = poisson_arrivals(
        400, server.saturation_qps() * 3.0, seed=11, stream=stream,
        compat="tir", priority_of=lambda i: 1 if i % 3 == 0 else 0,
    )
    result = server.run(arrivals)
    # misses pay a lookup before admission; every shedding path fires
    assert result.cache_hits and result.rejected and result.expired
    assert _sha256(dataclasses.asdict(result)).startswith("d7e14fa2")


@pytest.mark.parametrize(
    "policy, deadline_s, counts, prefix",
    [
        ("deadline", 0.008, (159, 80, 0, 92), "395901206d31e258"),
        ("drop-oldest", None, (169, 0, 158, 0), "ec815c438560a668"),
    ],
)
def test_traced_metered_read_serving_run_pinned(
    policy, deadline_s, counts, prefix
):
    config = ServingConfig(
        app="tir", features=50_000, queue_bound=6, max_batch=4, n_servers=2,
        cache_entries=32, policy=policy, deadline_s=deadline_s,
    )
    metrics, tracer = MetricsRegistry(), Tracer()
    server = QueryServer(config, metrics=metrics, tracer=tracer)
    stream = QueryStream(
        dim=32, n_intents=300, distribution="zipf", alpha=0.9,
        paraphrase_noise=0.05, seed=4,
    )
    arrivals = poisson_arrivals(
        500, 3 * server.saturation_qps(), seed=9, stream=stream, compat="tir",
    )
    result = server.run(arrivals)
    assert (
        result.cache_hits, result.rejected, result.evicted, result.expired
    ) == counts
    records = [
        [tracer.track_name(s.track), s.name, s.start, s.duration, s.cat, s.args]
        for s in tracer.spans
    ] + [
        [tracer.track_name(i.track), i.name, i.time, i.cat, i.args]
        for i in tracer.instants
    ]
    payload = [dataclasses.asdict(result), metrics.snapshot(), records]
    assert _sha256(payload).startswith(prefix)
