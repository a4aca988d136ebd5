"""Host-time span recorder and self-time arithmetic.

A span is one call into a layer's public function: its layer name, its
start and end on the host clock, the span that was open when it began
(its parent) and the id of the benchmark op it served.  Spans live in
flat arrays while the run lasts and are written out once, at the end.

A layer's *self* time is the duration of its spans minus the part of
that interval covered by their child spans.  Calls are single-threaded
and properly nested, so a span's children never overlap and the
covered part is simply the sum of the children's durations.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: parent index of a span opened while no other span was open
ROOT = -1


class SpanRecorder:
    """Records nested host-time spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        #: index of the innermost open span (ROOT when none is open)
        self.current = ROOT
        #: op id stamped on every span opened from now on (-1: set-up)
        self.op_id = -1
        #: >0 while an opaque span is open; nothing beneath it records
        self._opaque_depth = 0
        self.counts: Dict[str, float] = {}
        self._patched: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        """The small integer id of a layer name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = ROOT,
            op: int = -1) -> int:
        """Record one finished span directly; returns its index."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        opaque: bool = False,
        counter: Optional[Callable[[tuple, object], Iterable[Tuple[str, float]]]] = None,
        pre: Optional[Callable[[tuple], object]] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records one span per call.

        ``opaque`` spans hide their callees: no span opens beneath one,
        so its self time is its whole duration.  ``counter(args,
        result)`` yields ``(counter name, amount)`` pairs after each
        recorded call; with ``pre`` given, it is called as
        ``counter(args, result, pre(args))``.
        """
        nid = self.intern(name)

        def traced(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            before = pre(args) if pre is not None else None
            idx = len(self.start)
            parent = self.current
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.current = idx
            if opaque:
                self._opaque_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if opaque:
                    self._opaque_depth -= 1
                self.start[idx] = t0
                self.end[idx] = t1
                self.current = parent
            if counter is not None:
                extra = (before,) if pre is not None else ()
                for key, amount in counter(args, result, *extra):
                    self.counts[key] = self.counts.get(key, 0.0) + amount
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner: object, attr: str, name: str, **options) -> bool:
        """Replace ``owner.attr`` with a recording stand-in.

        Only an attribute defined on ``owner`` itself is patched (an
        inherited one belongs to the base class's own entry), so a
        function later removed from the program is skipped rather than
        double-wrapped.  Returns whether a patch was made.
        """
        namespace = getattr(owner, "__dict__", {})
        if attr not in namespace:
            return False
        original = namespace[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: static/class methods unsupported")
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))
        return True

    def unpatch(self) -> None:
        """Restore every attribute :meth:`patch` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one row per span)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span and the layer-name table to ``path`` (npz)."""
        np.savez_compressed(
            path, names=np.asarray(self.names), **self.arrays()
        )


def self_seconds(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the children's durations."""
    duration = end - start
    children = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


def layer_totals(
    spans: Dict[str, np.ndarray],
    names: List[str],
    window: Tuple[float, float],
) -> Tuple[Dict[str, float], float]:
    """Self seconds per layer in ``window``, plus the seconds no span covers.

    Only spans that start inside the window count.  The uncovered time
    is the window's length minus the durations of its top-level spans
    (those whose parent is not in the window), so the layer totals and
    the uncovered time add up to the window.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = self_seconds(parent, start, end)
    chosen = (start >= window[0]) & (start < window[1])
    totals = np.bincount(
        spans["name_id"][chosen], weights=own[chosen], minlength=len(names)
    )
    out = {name: float(totals[i]) for i, name in enumerate(names)}
    parent_chosen = np.zeros(len(start), dtype=bool)
    has_parent = parent >= 0
    parent_chosen[has_parent] = chosen[parent[has_parent]]
    top = chosen & ~parent_chosen
    covered = float((end[top] - start[top]).sum())
    return out, (window[1] - window[0]) - covered
