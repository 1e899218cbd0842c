"""App decorators.

``@python_app`` marks a Python function for concurrent execution; invoking it
returns an :class:`~repro.parsl.dataflow.futures.AppFuture` instead of running
the body inline.  ``@bash_app`` marks a function whose *return value* is a
command line to execute in a subshell.  ``@join_app`` marks a function that
itself returns futures; the app completes when the inner futures do.

The decorators may be used bare (``@python_app``) or with arguments
(``@python_app(executors=["htex"])``), matching Parsl's API.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.parsl.apps.bash import remote_side_bash_executor
from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader
from repro.parsl.dataflow.futures import AppFuture


def _resolve_executor_label(executors: Union[str, Sequence[str], None]) -> str:
    """Map the ``executors`` decorator argument to a single label ('all' = any)."""
    if executors is None or executors == "all":
        return "all"
    if isinstance(executors, str):
        return executors
    if len(executors) == 0:
        return "all"
    return executors[0]


class AppBase:
    """Common machinery shared by the three app flavours."""

    app_type = "python"

    def __init__(
        self,
        func: Callable,
        data_flow_kernel: Optional[DataFlowKernel] = None,
        executors: Union[str, Sequence[str], None] = "all",
    ) -> None:
        self.func = func
        self.data_flow_kernel = data_flow_kernel
        self.executor_label = _resolve_executor_label(executors)
        functools.update_wrapper(self, func)

    def _dfk(self) -> DataFlowKernel:
        if self.data_flow_kernel is not None:
            return self.data_flow_kernel
        return DataFlowKernelLoader.dfk()

    def __call__(self, *args: Any, **kwargs: Any) -> AppFuture:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {getattr(self.func, '__name__', self.func)!r}>"


class PythonApp(AppBase):
    """An app whose body runs as a Python callable on an executor."""

    app_type = "python"

    def __call__(self, *args: Any, **kwargs: Any) -> AppFuture:
        return self._dfk().submit(
            self.func,
            args,
            kwargs,
            app_type="python",
            executor_label=self.executor_label,
        )


class BashApp(AppBase):
    """An app whose body returns a command line to execute in a subshell."""

    app_type = "bash"

    def __call__(self, *args: Any, **kwargs: Any) -> AppFuture:
        wrapped = functools.partial(remote_side_bash_executor, self.func)
        functools.update_wrapper(wrapped, self.func)
        return self._dfk().submit(
            wrapped,
            args,
            kwargs,
            app_type="bash",
            executor_label=self.executor_label,
        )


class JoinApp(AppBase):
    """An app whose body returns futures; its result is the inner futures' results."""

    app_type = "join"

    def __call__(self, *args: Any, **kwargs: Any) -> AppFuture:
        return self._dfk().submit(
            self.func,
            args,
            kwargs,
            app_type="join",
            executor_label=self.executor_label,
            join=True,
        )


def _make_decorator(app_class: type) -> Callable:
    """Build a decorator usable both bare and with keyword arguments."""

    def decorator(
        function: Optional[Callable] = None,
        data_flow_kernel: Optional[DataFlowKernel] = None,
        executors: Union[str, List[str], None] = "all",
    ):
        def wrap(func: Callable):
            return app_class(
                func,
                data_flow_kernel=data_flow_kernel,
                executors=executors,
            )

        if function is not None:
            return wrap(function)
        return wrap

    return decorator


#: Decorator for Python apps.
python_app = _make_decorator(PythonApp)
#: Decorator for bash apps.
bash_app = _make_decorator(BashApp)
#: Decorator for join apps.
join_app = _make_decorator(JoinApp)
