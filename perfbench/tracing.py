"""Span recorder for the benchmark's traced runs.

A traced run swaps public entry points of nbqc for wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory and are written out when the run ends.  A span
name is "<layer>.<what>"; the layer is the nbqc module whose entry point
was called, or "bench" for the benchmark's own code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        """`fn` inside a span; `on_result` sees the result after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace each `(owner, attribute, span name[, on_result])` while inside."""
        saved = []
        try:
            for owner, attr, name, *on_result in targets:
                # restore the raw attribute, so a classmethod stays one
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), *on_result))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def duration(self, name: str) -> float:
        """Summed duration of every span called `name`."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_times().items():
            out[name.split(".", 1)[0]] += t
        return out

    def total(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def export(self, trace_id: int) -> list[dict]:
        return [
            {"trace": trace_id, "name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
