"""SSD-internal DRAM model.

Modern SSD controllers carry a few GB of DRAM at 15-26 GB/s (paper §4.5;
we use the paper's 20 GB/s working number).  DeepStore uses it for the
query cache, cached database metadata, staged model weights, and per-
accelerator result buffers.  The model tracks named allocations against
capacity and provides an analytic transfer-time helper.
"""

from __future__ import annotations

from typing import Dict


class DramError(RuntimeError):
    """Raised on over-allocation or unknown buffer names."""


class SsdDram:
    """Capacity + bandwidth model of the SSD's DRAM."""

    def __init__(self, capacity_bytes: int, bandwidth_bytes_per_s: float):
        if capacity_bytes <= 0 or bandwidth_bytes_per_s <= 0:
            raise ValueError("DRAM capacity and bandwidth must be positive")
        self.capacity_bytes = capacity_bytes
        self.bandwidth = bandwidth_bytes_per_s
        self._allocations: Dict[str, int] = {}
        self.bytes_transferred = 0

    # ------------------------------------------------------------------
    # capacity accounting
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, name: str, nbytes: int) -> None:
        """Reserve a named buffer (idempotent resize for the same name)."""
        if nbytes < 0:
            raise DramError(f"negative allocation for {name!r}")
        current = self._allocations.get(name, 0)
        if nbytes - current > self.free_bytes:
            raise DramError(
                f"DRAM exhausted: {name!r} needs {nbytes - current} more bytes, "
                f"{self.free_bytes} free of {self.capacity_bytes}"
            )
        self._allocations[name] = nbytes

    def free(self, name: str) -> None:
        """Release a named buffer."""
        if name not in self._allocations:
            raise DramError(f"no allocation named {name!r}")
        del self._allocations[name]

    def allocation(self, name: str) -> int:
        """Current size of a named buffer (0 when absent)."""
        return self._allocations.get(name, 0)

    # ------------------------------------------------------------------
    # bandwidth
    # ------------------------------------------------------------------
    def transfer_seconds(self, nbytes: int, sharers: int = 1) -> float:
        """Analytic time to move ``nbytes`` with ``sharers`` contenders."""
        if nbytes < 0:
            raise DramError("negative transfer")
        if sharers <= 0:
            raise DramError("sharers must be positive")
        self.bytes_transferred += nbytes
        return nbytes / (self.bandwidth / sharers)
