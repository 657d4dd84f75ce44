"""Spans around the calls into each layer, recorded from outside the program.

A ``Tracer`` replaces module attributes of ``itmatch`` with timing
wrappers while it is installed and puts the originals back when it is
removed, so untraced work runs the program's own functions untouched.
Spans (name, op, parent, start, end) are kept in memory; cyclic GC
pauses are recorded as spans too, through ``gc.callbacks``.  A wrapped
attribute that no longer exists is reported as absent.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets):
        """targets: (metric name, module, attribute name) triples."""
        self.targets = list(targets)
        self.absent = sorted(name for name, module, attr in self.targets if not hasattr(module, attr))
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.op, parent, start, end)

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(("tensor.gc", self.op, parent, self._gc_start, time.perf_counter()))

    def install(self, op: int) -> None:
        self.op = op
        for name, module, attr in self.targets:
            if name in self.absent:
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def per_op(self, name: str, ops) -> tuple[float, float]:
        """Median over `ops` of the time (ms) and the number of calls per op
        spent in spans named `name`."""
        ms = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                ms[span[1]] += 1e3 * (span[4] - span[3])
                calls[span[1]] += 1
        return (
            statistics.median(ms[op] for op in ops),
            statistics.median(calls[op] for op in ops),
        )


def tape_size(root) -> int:
    """Nodes reachable from `root` through the autodiff tape's parent links."""
    seen = {id(root)}
    work = [root]
    while work:
        node = work.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                work.append(parent)
    return len(seen)
