"""Spans and counts recorded from the benchmark's side of each public call.

A span is (name, start, end, parent); spans nest through a stack, live in
memory and are summarised when the worker exits.  With tracing off the
context manager records nothing, so the untraced run pays one generator
per call.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """Process high-water mark of resident memory, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Record the enclosed block as a span; `start` backdates it."""
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rss0": peak_rss_mb(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()
            rec["rss1"] = peak_rss_mb()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, peak-RSS growth."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict[str, float]] = {}
        for rec, inner in zip(self.spans, child):
            dur = rec["end"] - rec["start"]
            agg = out.setdefault(
                rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_delta_mb": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - inner
            agg["rss_delta_mb"] += rec["rss1"] - rec["rss0"]
        return out
