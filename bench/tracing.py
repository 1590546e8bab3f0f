"""In-memory spans around the toolkit's public calls, for traced runs.

Spans are recorded only from the benchmark's own files. Calls the
benchmark makes directly are wrapped with ``Tracer.span``; calls the
toolkit makes internally (``debounce`` inside ``pair_events``,
``summarize`` and ``boxplot_data`` inside ``build_report``, ``sample`` on
the delay distributions inside ``simulate``) are reached by swapping the
module attribute the caller looks up for a wrapper, only while a traced
round runs. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


class Tracer:
    """Spans and counts, grouped by the operation that caused them."""

    def __init__(self) -> None:
        self.enabled = False
        # (name, start_ns, end_ns, parent index or -1, operation index)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.timings_ns: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op_index: int) -> None:
        self._op = op_index

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, op)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span timed by the caller, e.g. a child process's wall time."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, start_ns, end_ns, parent, self._op))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    def timing(self, name: str, ns: float) -> None:
        """A time measured outside any span, e.g. per call of a replayed function."""
        if self.enabled:
            self.timings_ns[name].append((self._op, ns))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned wrapper while tracing is on."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times_ns(self) -> dict[str, dict[int, int]]:
        """Per span name and operation index, the span's summed self time."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_op: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            per_op[name][op] += end - start - child_ns[i]
        return per_op

    def mean_count(self, name: str) -> float:
        values = self.counts.get(name)
        return statistics.fmean(values) if values else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "timings_ns": self.timings_ns,
                }
            ),
            encoding="utf-8",
        )
