"""Spans recorded around the benchmark's own calls into gaussesd.

A span is (name, start, end, parent, op).  Spans stay in memory and are
written out once, when the run ends.  ``NullTracer`` has the same interface
and records nothing; the untraced passes use it, so both passes run the same
code.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent_index, op]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by name."""
        out = defaultdict(list)
        for name, start, end, _parent, _op in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NullTracer:
    def span(self, name: str, op: int = -1):
        return contextlib.nullcontext()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
