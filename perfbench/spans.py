"""Span tracing from outside the library.

The tracer replaces bound methods on the objects the benchmark builds with
wrappers that open a span per call, so nothing under ``src/`` changes.
Spans nest on one stack (the worker is single-threaded); a span's self time
is its duration minus the time its child spans cover.  Garbage-collector
pauses, reported through ``gc.callbacks``, open a ``gc`` child span of
whatever span is running, so self times plus GC pauses add up to the
enclosing wall time.

A run makes millions of calls, so spans are folded into per-name totals as
they close instead of being kept one by one.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

GC_SPAN = "gc"


class Tracer:
    """Per-name span totals; GC pauses under ``root_span`` are also summed
    on their own (``gc_in_root_s``)."""

    def __init__(self, root_span: str):
        self.root_span = root_span
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.gc_collections = 0
        self.gc_gen2_collections = 0
        self.gc_in_root_s = 0.0

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self.stack
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - frame[1]
                stack.pop()
                self_s[name] += d - frame[2]
                total_s[name] += d
                if stack:
                    stack[-1][2] += d

        return traced

    def attach(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a traced wrapper on this instance only."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.stack.append([GC_SPAN, time.perf_counter(), 0.0])
            return
        frame = self.stack.pop()
        d = time.perf_counter() - frame[1]
        self.self_s[GC_SPAN] += d
        self.total_s[GC_SPAN] += d
        self.gc_collections += 1
        if info["generation"] == 2:
            self.gc_gen2_collections += 1
        if self.stack:
            self.stack[-1][2] += d
            if self.stack[0][0] == self.root_span:
                self.gc_in_root_s += d

    def __enter__(self) -> "Tracer":
        """Count garbage-collector pauses until the block exits."""
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
