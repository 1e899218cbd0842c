"""The executor interface.

Executors follow the shape of :class:`concurrent.futures.Executor` but receive
an additional per-task ``resource_spec`` dictionary (cores, memory, disk) which
resource-aware executors may honour and others ignore, matching Parsl's
``ParslExecutor`` API.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional


class ParslExecutor(ABC):
    """Abstract base class for all executors."""

    #: Set by subclasses or the constructor; used by the DFK to route tasks.
    label: str = "executor"

    def __init__(self, label: str = "executor") -> None:
        self.label = label
        #: The DataFlowKernel sets this to its run directory before calling start().
        self.run_dir: Optional[str] = None
        self._started = False

    @abstractmethod
    def start(self) -> None:
        """Acquire resources (threads, processes, provider blocks)."""

    @abstractmethod
    def submit(self, func: Callable, resource_spec: Dict[str, Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``func(*args, **kwargs)`` for execution and return a Future."""

    @abstractmethod
    def shutdown(self) -> None:
        """Release all resources.  Must be idempotent."""

    def withdraw(self, future: Future) -> None:
        """Take a submitted task back if it has not started running; its
        future is then cancelled.  By default nothing can be withdrawn."""

    # ------------------------------------------------------------- optional

    def scale_out(self, blocks: int = 1) -> int:
        """Request additional resource blocks; returns how many were added."""
        return 0

    def scale_in(self, blocks: int = 1) -> int:
        """Release resource blocks; returns how many were removed."""
        return 0

    def outstanding(self) -> int:
        """Number of submitted-but-unfinished tasks (used by scaling strategies)."""
        return 0

    @property
    def started(self) -> bool:
        return self._started

    def __repr__(self) -> str:
        return f"<{type(self).__name__} label={self.label!r}>"
