"""The benchmark's own span recorder.

Spans are recorded by the benchmark around its calls into each layer's
public functions, kept in memory, and written as JSONL at exit.  The
recorder is deliberately independent of ``repro.observability`` so a
later rewrite of the program's tracing cannot change what the
benchmark measures.

A span's *self time* is its duration minus the part of its interval
that its children cover; the self times of a tree therefore add up to
the root's duration.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    request_id: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Single-threaded, stack-nested span recorder."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, request_id: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(
            name,
            len(self.spans) + 1,
            parent.span_id if parent is not None else None,
            request_id,
            time.perf_counter(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span)
        self._enter(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._exit(span)
            self._stack.pop()

    def _enter(self, span: Span) -> None:
        pass

    def _exit(self, span: Span) -> None:
        pass

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class MemoryRecorder(Recorder):
    """Records each span's tracemalloc peak above its starting level
    (``attrs["peak_mb"]``).  tracemalloc slows the traced code several
    fold, so this recorder runs in a pass of its own, never in the one
    that gives span times."""

    def __init__(self) -> None:
        super().__init__()
        self._base: dict[int, int] = {}
        self._peak: dict[int, int] = {}

    def _enter(self, span: Span) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if span.parent_id is not None:
            # a child resets the peak, so fold the parent's peak so far in
            self._peak[span.parent_id] = max(self._peak[span.parent_id], peak)
        self._base[span.span_id] = current
        self._peak[span.span_id] = current
        tracemalloc.reset_peak()

    def _exit(self, span: Span) -> None:
        peak = max(self._peak[span.span_id], tracemalloc.get_traced_memory()[1])
        span.attrs["peak_mb"] = (peak - self._base[span.span_id]) / MIB
        if span.parent_id is not None:
            self._peak[span.parent_id] = max(self._peak[span.parent_id], peak)


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span_id -> duration minus the union of its children's intervals``
    (children clipped to the parent's interval)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.span_id] = s.duration - covered
    return out


def by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total duration and total self time (s)."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.span_id]
    return table
