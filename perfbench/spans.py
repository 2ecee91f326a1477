"""In-memory span recorder with one span stack per thread.

A span is [name, start, end, parent, invocation, thread, counts]: `parent` is
the index of the enclosing span on the same thread (None at top level), so
spans opened by worker threads never nest under another thread's span.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, INVOCATION, THREAD, COUNTS = range(7)


class Tracer:
    """Records one span per wrapped call, tagged with `invocation` (the CLI call running)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                self.invocation, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNTS] = counts
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call.

        `name` is a string or a function of the call's arguments; `count`, if
        given, maps (args, kwargs, result) to a dict of sizes stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name if isinstance(name, str) else name(args, kwargs))
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self.close(index, counts)

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, and summed counts."""
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        for key, value in (span[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return dict(out)
