"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a library module.  Each span
records its name, start, end, parent span and item id, plus a work count
(cases for a suite run, samples for a falsify call that spent its budget).
Spans live in preallocated integer arrays so that recording one costs two
clock reads and a few array stores; they are written out once, when the run
ends.

Spans are taken only at the boundary between the benchmark and the library:
calls the library makes internally are not split out, so a layer's self time
is the time the benchmark spent inside that layer's public entry points.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        zeros = bytes(8 * capacity)
        self.name = array("q", zeros)
        self.start = array("q", zeros)
        self.end = array("q", zeros)
        self.parent = array("q", zeros)
        self.item = array("q", zeros)
        self.work = array("q", zeros)
        self.count = 0
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self.current_item = -1

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = self.count
        self.count = i + 1
        self.name[i] = nid
        self.parent[i] = self._stack[-1]
        self.item[i] = self.current_item
        self._stack.append(i)
        self.start[i] = perf_counter_ns()
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.  ``work(args, result)`` gives
        the call's work count; without it the count is 0 (not counted)."""
        nid = self.intern(name)
        open_, close, works = self.open, self.close, self.work
        if work is None:

            def traced(*args):
                i = open_(nid)
                try:
                    return fn(*args)
                finally:
                    close(i)

        else:

            def traced(*args):
                i = open_(nid)
                try:
                    result = fn(*args)
                finally:
                    close(i)
                works[i] = work(args, result)
                return result

        return traced

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,name,start_ns,end_ns,parent,item,work\n")
            names = self.names
            for i in range(self.count):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.item[i]},{self.work[i]}\n"
                )


class SpanStats:
    """Per-name self times and work counts, from the recorded spans.

    Self time is a span's duration minus the durations of its direct children;
    spans are strictly nested (one thread, stack order), so the children of a
    span never overlap and the subtraction is exact.
    """

    def __init__(self, tracer: Tracer) -> None:
        n = tracer.count
        start, end, parent = tracer.start, tracer.end, tracer.parent
        dur = [end[i] - start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.self_ns: Dict[str, List[int]] = {}
        self.work: Dict[str, List[int]] = {}
        names = tracer.names
        for i in range(n):
            name = names[tracer.name[i]]
            self.self_ns.setdefault(name, []).append(dur[i] - child[i])
            self.work.setdefault(name, []).append(tracer.work[i])

    def median_ns(self, name: str) -> float:
        """Median self time of one call; 0 when the run made no such call."""
        times = self.self_ns.get(name)
        return float(statistics.median(times)) if times else 0.0

    def median_ns_per_work(self, name: str) -> float:
        """Median over calls with a work count of self time per unit of work."""
        ratios = [
            t / w for t, w in zip(self.self_ns.get(name, ()), self.work.get(name, ())) if w > 0
        ]
        return float(statistics.median(ratios)) if ratios else 0.0

    def total_work(self, name: str) -> int:
        return sum(self.work.get(name, ()))

    def module_totals(self) -> Dict[str, List[float]]:
        """module -> [calls, self seconds]; the module is the name's first part."""
        out: Dict[str, List[float]] = {}
        for name, times in self.self_ns.items():
            acc = out.setdefault(name.split(".", 1)[0], [0, 0.0])
            acc[0] += len(times)
            acc[1] += sum(times) / 1e9
        return out
