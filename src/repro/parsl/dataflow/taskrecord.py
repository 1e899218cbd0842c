"""The per-task bookkeeping record used by the DataFlowKernel."""

from __future__ import annotations

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
    #: The executor's future while the task is launched and not finished.
    exec_future: Optional[Future] = None
    resource_spec: Dict[str, Any] = field(default_factory=dict)
