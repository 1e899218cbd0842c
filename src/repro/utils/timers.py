"""Wall-clock timing helpers used by runners, monitors and benchmarks."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def wall_time() -> float:
    """Return a monotonic wall-clock reading in seconds."""
    return time.perf_counter()


@dataclass
class Stopwatch:
    """A small stopwatch with named laps.

    Used by the benchmark harness to separate e.g. document-parse time from
    execution time.

    Example::

        sw = Stopwatch()
        sw.start()
        ... do work ...
        sw.lap("parse")
        ... do more work ...
        sw.lap("execute")
        total = sw.stop()
    """

    _start: Optional[float] = None
    _last: Optional[float] = None
    _end: Optional[float] = None
    laps: Dict[str, float] = field(default_factory=dict)
    lap_order: List[str] = field(default_factory=list)

    def start(self) -> "Stopwatch":
        self._start = wall_time()
        self._last = self._start
        self._end = None
        self.laps.clear()
        self.lap_order.clear()
        return self

    def lap(self, name: str) -> float:
        """Record the elapsed time since the previous lap under ``name``."""
        if self._start is None or self._last is None:
            raise RuntimeError("Stopwatch.lap() called before start()")
        now = wall_time()
        delta = now - self._last
        self._last = now
        self.laps[name] = self.laps.get(name, 0.0) + delta
        if name not in self.lap_order:
            self.lap_order.append(name)
        return delta

    def stop(self) -> float:
        """Stop the stopwatch and return the total elapsed time."""
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self._end = wall_time()
        return self._end - self._start

    @property
    def elapsed(self) -> float:
        """Total elapsed time; uses "now" when the stopwatch is still running."""
        if self._start is None:
            return 0.0
        end = self._end if self._end is not None else wall_time()
        return end - self._start
