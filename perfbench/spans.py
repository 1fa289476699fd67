"""In-memory span recorder for the traced benchmark run.

A span is one timed call made by the benchmark into the library: its name, a
start and an end from ``time.perf_counter_ns``, the span that was open when it
began (its parent) and the id of the input item it served.  Spans stay in a
list until the run ends and are then written out in one JSON file.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("sid", "parent", "name", "item", "tag", "start", "end", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, item: Any, tag: str | None) -> None:
        self._tracer = tracer
        self.name = name
        self.item = item
        self.tag = tag
        self.sid = len(tracer.spans)
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.start = self.end = 0
        tracer.spans.append(self)

    def __enter__(self) -> "Span":
        self._tracer.stack.append(self.sid)
        self.start = _clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = _clock()
        self._tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects spans; ``span(name, item)`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str, item: Any = None, tag: str | None = None) -> Span:
        return Span(self, name, item, tag)

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        out = {}
        for sp in self.spans:
            covered = 0
            cursor = sp.start
            for child in sorted(children.get(sp.sid, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sp.sid] = (sp.end - sp.start - covered) / 1e9
        return out

    def by_name(self, name: str, tag: str | None = None) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name and (tag is None or sp.tag == tag)]

    def write(self, path: Path, extra: dict) -> None:
        """Write every span and the per-name self-time totals as JSON."""
        self_s = self.self_seconds()
        totals: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            row = totals.setdefault(sp.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += sp.seconds
            row["self_s"] += self_s[sp.sid]
        doc = {
            **extra,
            "fields": ["id", "parent", "name", "item", "tag", "start_ns", "end_ns"],
            "spans": [
                [sp.sid, sp.parent, sp.name, sp.item, sp.tag, sp.start, sp.end]
                for sp in self.spans
            ],
            "self_time_by_name": totals,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, default=str))
