"""Spans recorded around calls into the program's layers.

Spans are kept in memory and written as one JSON document when the
benchmark ends. Each span has a name, start and end (seconds on the
benchmark's monotonic clock), the id of the span that caused it, and the
run id shared by every span of one benchmark run.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def busy(self, parent: dict) -> dict[str, float]:
        """Seconds per span name over the direct children of ``parent``
        (a layer called twice in one iteration adds up)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["parent"] == parent["id"] and s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, **extra, "spans": self.spans}, f, indent=1)


_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_TIME = r"([\d.]+)(us|ms|s)"
_WALL = re.compile(rf"Remote wall time: {_TIME} min, {_TIME} max, {_TIME} mean, {_TIME} total")
_CPU = re.compile(rf"Remote cpu time: {_TIME} min, {_TIME} max, {_TIME} mean, {_TIME} total")


def _secs(groups, i: int) -> float:
    return float(groups[2 * i]) * _UNIT_S[groups[2 * i + 1]]


def last_operator_stats(ds) -> dict:
    """Task CPU seconds and max/mean task wall time of the LAST operator
    in ``Dataset.stats()`` (the stage just materialized; earlier sections
    repeat the already-materialized inputs). Zeros when Ray printed no
    task timings for it."""
    section = re.split(r"\n(?=Operator \d+ )", ds.stats())[-1]
    wall, cpu = _WALL.search(section), _CPU.search(section)
    out = {"cpu_s": 0.0, "task_max_over_mean": 0.0}
    if cpu:
        out["cpu_s"] = _secs(cpu.groups(), 3)
    if wall and _secs(wall.groups(), 2) > 0:
        out["task_max_over_mean"] = _secs(wall.groups(), 1) / _secs(wall.groups(), 2)
    return out
