"""In-memory spans recorded around calls into isopair's public functions.

A span has a name, a start and an end on the system-wide monotonic clock (so
``run.py`` and its worker processes share one time line), the id of its
parent span, the id of the operation it belongs to, and optional counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one operation; ``spans`` is JSON-ready."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
            "end": None,
        }
        if counts:
            record["counts"] = counts
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of it its child spans cover,
    keyed by (operation id, span id)."""
    children: dict[tuple[int, int], list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["op"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get((s["op"], s["id"]), ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[(s["op"], s["id"])] = s["end"] - s["start"] - covered
    return out
