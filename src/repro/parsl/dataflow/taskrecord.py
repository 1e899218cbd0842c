"""The per-task bookkeeping record used by the DataFlowKernel."""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.parsl.dataflow.states import States


@dataclass
class TaskRecord:
    """Mutable record describing one submitted task.

    The DataFlowKernel creates one record per app invocation and mutates it as
    the task moves through its lifecycle.  The kernel lets go of a record once
    it is final; the task's :class:`AppFuture` keeps it reachable
    (``future.task_record``).
    """

    id: int
    func: Callable
    func_name: str
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    app_type: str = "python"           # "python" | "bash" | "join"
    executor: str = "all"              # requested executor label
    status: States = States.unsched
    depends: List[Future] = field(default_factory=list)
    app_future: Optional[Any] = None   # AppFuture (typed loosely to avoid cycles)
    resource_spec: Dict[str, Any] = field(default_factory=dict)
    time_invoked: float = field(default_factory=time.time)
    time_launched: Optional[float] = None
    time_returned: Optional[float] = None

    def transition(self, new_state: States) -> None:
        """Move to ``new_state`` and timestamp launch/return transitions."""
        self.status = new_state
        if new_state == States.launched and self.time_launched is None:
            self.time_launched = time.time()
        if new_state.is_final:
            self.time_returned = time.time()

    @property
    def pending_duration(self) -> float:
        """Seconds spent between invocation and launch (dependency + queue wait)."""
        if self.time_launched is None:
            return 0.0
        return self.time_launched - self.time_invoked

    @property
    def total_duration(self) -> Optional[float]:
        if self.time_returned is None:
            return None
        return self.time_returned - self.time_invoked
