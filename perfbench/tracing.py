"""In-memory spans and counters recorded from the benchmark's own files.

A span wraps one call from the benchmark into a public `agendalab`
function; a task span wraps one whole task.  Nothing inside the library
is instrumented.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Records spans and counts when enabled; otherwise only forwards calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._task: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span named `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self._task))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._task)

    def task(self, task_id: int, fn, *args):
        """Run one task under a `bench.task` span that its calls nest in."""
        self._task = task_id
        try:
            return self.call("bench.task", fn, *args)
        finally:
            self._task = None

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed duration in seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, _task in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def self_times(self) -> dict[str, float]:
        """Per layer (the span-name prefix before the first dot): self time.

        A span's self time is its duration minus the time its child spans
        cover; children of one parent never overlap (one thread).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _task in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _task) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child_time[index]
        return dict(out)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
