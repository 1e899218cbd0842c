"""Identifier helpers.

Task, job and run identifiers are used throughout the Parsl-like dataflow kernel,
the CWL runners and the simulated cluster.  They are intentionally simple —
monotonically increasing integers scoped to a generator — because determinism
makes the test suite and the benchmark harness much easier to reason about.
"""

from __future__ import annotations

import itertools
import threading


class RunIdGenerator:
    """Thread-safe monotonically increasing integer id generator.

    Each :class:`~repro.parsl.dataflow.dflow.DataFlowKernel` owns one generator
    for task ids; each simulated cluster owns one for job ids.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def next(self) -> int:
        """Return the next id.  Safe to call from multiple threads."""
        with self._lock:
            return next(self._counter)

    def peek(self) -> int:
        """Return the next id without consuming it (best effort, unlocked)."""
        # itertools.count has no non-consuming peek; we emulate by copying.
        with self._lock:
            value = next(self._counter)
            self._counter = itertools.count(value)
            return value
