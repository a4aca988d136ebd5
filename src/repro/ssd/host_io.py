"""Host I/O interference with in-storage queries.

DeepStore's accelerators sit only in the read path, and during query
operations "the SSD controller responds to regular read/write operations
with a busy signal" (paper §4.5) — queries preempt host I/O.  This module
models the policy space around that choice:

* ``"preempt"`` — the paper's design: queries own the channels, host I/O
  stalls until the scan finishes (query time unchanged, host I/O delayed);
* ``"share"`` — fair round-robin: host traffic takes its proportional
  slice of every channel bus, slowing I/O-bound scans;
* ``"host-priority"`` — host traffic is serviced first and the scan runs
  in the leftover bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ssd.timing import SsdConfig

POLICIES = ("preempt", "share", "host-priority")


@dataclass(frozen=True)
class HostIoWorkload:
    """Background host traffic during a query."""

    #: fraction of each channel's bandwidth the host tries to consume
    offered_load: float
    #: read fraction of the host traffic (writes also occupy the bus)
    read_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0 <= self.offered_load <= 1:
            raise ValueError("offered_load must be in [0, 1]")
        if not 0 <= self.read_fraction <= 1:
            raise ValueError("read_fraction must be in [0, 1]")


@dataclass
class InterferenceResult:
    """Outcome of running a scan against host traffic."""

    policy: str
    scan_slowdown: float  # scan time / isolated scan time
    host_throughput_fraction: float  # of offered load actually served


class InterferenceModel:
    """Analytic channel-sharing model."""

    def __init__(self, ssd: Optional[SsdConfig] = None):
        self.ssd = ssd or SsdConfig()

    def query_bandwidth_fraction(
        self, workload: HostIoWorkload, policy: str
    ) -> float:
        """Fraction of channel bandwidth left for the query scan."""
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if policy == "preempt":
            return 1.0
        if policy == "share":
            # fair round-robin: the host gets at most half the bus, less
            # if it offers less
            return 1.0 - min(workload.offered_load, 0.5)
        return max(0.05, 1.0 - workload.offered_load)

    def evaluate(
        self,
        workload: HostIoWorkload,
        policy: str,
        scan_io_fraction: float = 1.0,
    ) -> InterferenceResult:
        """Slowdown of a scan whose I/O share is ``scan_io_fraction``.

        Compute-bound scans (``scan_io_fraction < 1``) hide part of the
        interference: only the I/O portion stretches.
        """
        if not 0 <= scan_io_fraction <= 1:
            raise ValueError("scan_io_fraction must be in [0, 1]")
        available = self.query_bandwidth_fraction(workload, policy)
        io_stretch = 1.0 / available
        slowdown = (1 - scan_io_fraction) + scan_io_fraction * io_stretch
        slowdown = max(1.0, slowdown)
        if policy == "preempt":
            served = 0.0
        else:
            served = min(1.0, (1.0 - 1.0 / io_stretch) / max(workload.offered_load, 1e-9))
            served = min(served, 1.0)
        return InterferenceResult(
            policy=policy,
            scan_slowdown=slowdown,
            host_throughput_fraction=served,
        )

