"""Bounded fork-map: run pure index-functions in child processes.

The serving offered-load sweep (:mod:`repro.serving.sweep`) is an
embarrassingly parallel loop: every point is a pure function of its
index, results must come back in index order, and the work closes over
a live server that only ``fork`` can ship to a worker.  This module is
that execution shape, factored out.

``fork_map(fn, n, processes)`` returns ``[fn(0), ..., fn(n-1)]``
computed by up to ``processes`` forked children at a time.  Each child
inherits the closure by fork, runs one item, writes one pickled
``(ok, value)`` payload to a pipe, and exits with ``os._exit`` so
parent cleanup never runs twice.  FIFO collection cannot deadlock: a
child writes its (small) payload and exits regardless of when the
parent reads, and the parent reads each pipe to EOF before reaping.

Because ``fn`` is pure, the parallel result is **bit-identical** to
the sequential list comprehension — same floats, same order; only host
wall-clock differs.  Platforms without ``os.fork`` and ``processes <=
1`` run the sequential loop.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, List, Optional, Tuple


def available() -> bool:
    """Whether fork-based parallelism exists on this platform."""
    return hasattr(os, "fork")


def _fork_item(fn: Callable[[int], Any], index: int) -> Tuple[int, int]:
    """Fork one worker for ``fn(index)``; returns ``(pid, read_fd)``."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn(index)))
        except BaseException as exc:  # noqa: BLE001 - must not escape the child
            payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _collect_item(index: int, pid: int, read_fd: int) -> Any:
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"fork_map worker {index} died without a result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"fork_map worker {index} failed: {value}")
    return value


def fork_map(
    fn: Callable[[int], Any], n: int, processes: Optional[int] = None
) -> List[Any]:
    """``[fn(i) for i in range(n)]`` over a bounded fork pool.

    ``processes`` bounds concurrent children; ``None`` uses the CPU
    count, ``<= 1`` (or no ``fork``) runs the plain sequential loop.
    ``fn``'s return values must pickle.
    """
    if n < 0:
        raise ValueError("n cannot be negative")
    workers = os.cpu_count() or 1 if processes is None else processes
    workers = max(1, min(workers, n))
    if workers <= 1 or not available():
        return [fn(i) for i in range(n)]
    results: List[Any] = [None] * n
    inflight: List[Tuple[int, int, int]] = []  # (index, pid, read_fd)
    next_item = 0
    while next_item < n or inflight:
        while next_item < n and len(inflight) < workers:
            pid, read_fd = _fork_item(fn, next_item)
            inflight.append((next_item, pid, read_fd))
            next_item += 1
        index, pid, read_fd = inflight.pop(0)
        results[index] = _collect_item(index, pid, read_fd)
    return results
