"""Thread-pool executor.

Backed by :class:`concurrent.futures.ThreadPoolExecutor`; the right choice for
workflows whose tasks are external processes (bash apps / CWLApps) because the
GIL is released while waiting on subprocesses.  This is the executor the paper
uses for the single-node experiment (Fig. 1b).
"""

from __future__ import annotations

import concurrent.futures as cf
import threading
from typing import Any, Callable, Dict

from repro.parsl.executors.base import ParslExecutor


class ThreadPoolExecutor(ParslExecutor):
    """Run tasks on a pool of local threads."""

    def __init__(self, label: str = "threads", max_threads: int = 8,
                 thread_name_prefix: str = "parsl-worker") -> None:
        super().__init__(label=label)
        if max_threads < 1:
            raise ValueError(f"max_threads must be >= 1, got {max_threads}")
        self.max_threads = max_threads
        self.thread_name_prefix = thread_name_prefix
        self._pool: cf.ThreadPoolExecutor | None = None
        self._outstanding = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        if self._started:
            return
        self._pool = cf.ThreadPoolExecutor(
            max_workers=self.max_threads, thread_name_prefix=self.thread_name_prefix
        )
        self._started = True

    def submit(self, func: Callable, resource_spec: Dict[str, Any], *args: Any, **kwargs: Any):
        if self._pool is None:
            raise RuntimeError(f"executor {self.label!r} has not been started")
        with self._lock:
            self._outstanding += 1
        future = self._pool.submit(func, *args, **kwargs)

        def _done(_fut) -> None:
            with self._lock:
                self._outstanding -= 1

        future.add_done_callback(_done)
        return future

    def withdraw(self, future: cf.Future) -> None:
        """A task still queued for a thread leaves the queue."""
        future.cancel()

    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=False)
            self._pool = None
        self._started = False
