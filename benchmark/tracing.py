"""Spans recorded from the benchmark around calls into the cvqec package.

A tracer runs in one of two passes.  In a timing pass (the default) a span
records its call count and self time: its wall time minus the part covered by
nested spans.  In a memory pass (``memory = True``, with ``tracemalloc``
tracing) a span records only the peak of heap allocations made during the call
above what was allocated when it began; NumPy reports its array buffers to
``tracemalloc``, so this covers the grid engine's large temporaries.  The
passes are kept apart because ``tracemalloc`` slows every Python allocation
and would inflate the self time of Python-heavy layers.  Spans are kept in
memory and summarised once at the end of the run.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call and record nothing."""

    enabled = False
    memory = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str) -> None:
        pass


class Tracer:
    """Per-name totals of calls, self time and allocation peak."""

    enabled = True

    def __init__(self) -> None:
        self.memory = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans, innermost last

    def span(self, name: str):
        return self._measured(name) if self.memory else self._timed(name)

    @contextmanager
    def _timed(self, name: str):
        frame = [0.0]  # seconds covered by nested spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    @contextmanager
    def _measured(self, name: str):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            # resetting the peak below would lose the enclosing span's high-water mark
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]  # heap at entry, highest heap seen
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            high = max(frame[1], tracemalloc.get_traced_memory()[1])
            self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), high - frame[0])
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], high)
            tracemalloc.reset_peak()

    def count(self, name: str) -> None:
        if not self.memory:
            self.counts[name] = self.counts.get(name, 0) + 1

    def span_metrics(self, names, no_peak=frozenset()) -> dict[str, dict]:
        """``<name>.self_ms`` (mean self time per call), ``<name>.calls`` and,
        unless the name is in ``no_peak``, ``<name>.peak_mb`` for every name;
        a layer the run never entered reports 0 calls and 0 for the others."""
        out = {}
        for name in names:
            calls = self.calls.get(name, 0)
            self_ms = 1e3 * self.self_s[name] / calls if calls else 0.0
            out[f"{name}.self_ms"] = {"value": self_ms, "unit": "ms"}
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            if name not in no_peak:
                out[f"{name}.peak_mb"] = {
                    "value": self.peak_bytes.get(name, 0) / 2**20, "unit": "MB"
                }
        return out
