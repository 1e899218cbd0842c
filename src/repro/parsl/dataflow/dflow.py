"""The DataFlowKernel (DFK).

The DFK is the heart of the Parsl programming model: every app invocation is
submitted to it, it tracks dependencies between tasks through the futures passed
as arguments, launches tasks on executors once their dependencies are met,
handles join apps, and exposes the familiar module level ``load`` / ``dfk`` /
``clear`` entry points through :class:`DataFlowKernelLoader`.

That is all it does.  A task runs once: a failure is final here, and whether
it is attempted again is decided by the run's one
:class:`~repro.cwl.retry.RetryPolicy` (:mod:`repro.cwl.retry`).  Result reuse
is :mod:`repro.cwl.jobcache`, resume is :mod:`repro.cwl.journal`, per-job
events are :class:`~repro.api.events.JobEvent`, and files reach a job through
the CWL layer's staging — the kernel has no second copy of any of them.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import CancelledError, Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.parsl.config import Config
from repro.parsl.data_provider.files import File
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.parsl.dataflow.rundirs import make_rundir
from repro.parsl.dataflow.states import States
from repro.parsl.dataflow.taskrecord import TaskRecord
from repro.parsl.errors import (
    ConfigurationError,
    DataFlowKernelShutdownError,
    DependencyError,
    JoinError,
    NoDataFlowKernelError,
)
from repro.utils.ids import RunIdGenerator
from repro.utils.logging_config import configure_logging, get_logger

logger = get_logger("parsl.dflow")


class DataFlowKernel:
    """Tracks tasks, resolves dependencies and dispatches work to executors."""

    def __init__(self, config: Config) -> None:
        if not config.executors:
            raise ConfigurationError("Config must define at least one executor")
        self.config = config
        self.run_dir = make_rundir(config.run_dir)
        configure_logging(run_dir=self.run_dir, stream=False)

        #: The tasks that have not finished yet.  A record leaves when it is
        #: final (its AppFuture still reaches it), so a long-lived kernel does
        #: not grow with the number of invocations it has served.
        self.tasks: Dict[int, TaskRecord] = {}
        self._finished_counts: Counter = Counter()
        self._task_id = RunIdGenerator()
        #: Tasks with a lower id never launch (see :meth:`cancel_unstarted`).
        self._cancelled_below = 0
        self._tasks_changed = threading.Condition()
        self._shutdown = False
        #: What :meth:`cleanup` calls last (:meth:`call_on_cleanup`), in order.
        self._on_cleanup: Dict[Callable[[], None], None] = {}

        self.executors: Dict[str, Any] = {}
        labels = [executor.label for executor in config.executors]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"executor labels must be unique, got {labels}")
        for executor in config.executors:
            executor.run_dir = self.run_dir
            executor.start()
            self.executors[executor.label] = executor
        logger.info("DataFlowKernel started in %s with executors %s",
                    self.run_dir, sorted(self.executors))

    # ------------------------------------------------------------ submission

    def submit(
        self,
        func: Callable,
        app_args: Tuple,
        app_kwargs: Dict[str, Any],
        app_type: str = "python",
        executor_label: str = "all",
        join: bool = False,
    ) -> AppFuture:
        """Register one app invocation and return its :class:`AppFuture`."""
        if self._shutdown:
            raise DataFlowKernelShutdownError("DataFlowKernel has been cleaned up")

        task_id = self._task_id.next()
        record = TaskRecord(
            id=task_id,
            func=func,
            func_name=getattr(func, "__name__", None) or repr(func),
            args=tuple(app_args),
            kwargs=dict(app_kwargs),
            app_type="join" if join else app_type,
            executor=executor_label,
        )
        app_future = AppFuture(record)
        record.app_future = app_future

        # Declared output files become DataFutures on the AppFuture.
        outputs = record.kwargs.get("outputs") or []
        normalized_outputs: List[File] = []
        for out in outputs:
            file_obj = out if isinstance(out, File) else File(out)
            normalized_outputs.append(file_obj)
            app_future.add_output(DataFuture(app_future, file_obj))
        if outputs:
            record.kwargs["outputs"] = normalized_outputs

        with self._tasks_changed:
            self.tasks[task_id] = record
        record.status = States.pending

        # Collect dependencies and register launch-on-completion callbacks.
        depends = self._gather_dependencies(record.args, record.kwargs)
        record.depends = depends
        logger.debug("task %s (%s) has %d dependencies", task_id, record.func_name, len(depends))

        if not depends:
            self._launch(record)
        else:
            pending = {"count": len(depends)}
            pending_lock = threading.Lock()

            def _dependency_done(_fut: Future, rec: TaskRecord = record) -> None:
                with pending_lock:
                    pending["count"] -= 1
                    remaining = pending["count"]
                if remaining == 0:
                    self._launch(rec)

            for dep in depends:
                dep.add_done_callback(_dependency_done)

        return app_future

    def _gather_dependencies(self, args: Tuple, kwargs: Dict[str, Any]) -> List[Future]:
        """Find every Future in the task's arguments, through the same containers
        :meth:`_sanitize_arguments` resolves (a CWL ``File[]`` of ``DataFuture`` s
        sits two levels down, inside the ``cwl_inputs`` dict)."""
        depends: List[Future] = []

        def check(value: Any) -> None:
            if isinstance(value, Future):
                depends.append(value)
            elif isinstance(value, (list, tuple, set)):
                for item in value:
                    check(item)
            elif isinstance(value, dict):
                for item in value.values():
                    check(item)

        check(args)
        check(kwargs)
        return depends

    # ------------------------------------------------------------- launching

    def _launch(self, record: TaskRecord) -> None:
        """Launch ``record`` onto an executor, or fail it if a dependency failed.

        Called once per record: by :meth:`submit` when there is nothing to wait
        for, otherwise by the last dependency to finish.  A task submitted
        before :meth:`cancel_unstarted` fails instead.
        """
        if record.id < self._cancelled_below:
            self._finish(record, States.failed, exception=_cancelled(record))
            return
        dep_errors = [e for e in (d.exception() for d in record.depends) if e is not None]
        if dep_errors:
            self._finish(record, States.dep_fail,
                         exception=DependencyError(dep_errors, record.id))
            return
        try:
            # With no dependency there is no future to replace.
            args, kwargs = self._sanitize_arguments(record) if record.depends \
                else (record.args, record.kwargs)
            executor = self._executor_for(record.executor)
            record.status = States.launched
            exec_future = executor.submit(record.func, record.resource_spec, *args, **kwargs)
        except Exception as exc:
            logger.exception("task %s could not be launched", record.id)
            self._finish(record, States.failed, exception=exc)
            return
        record.exec_future = exec_future
        exec_future.add_done_callback(lambda fut, rec=record: self._handle_exec_done(rec, fut))

    def _executor_for(self, label: str):
        if label == "all":
            return next(iter(self.executors.values()))
        if label not in self.executors:
            raise ConfigurationError(
                f"app requests executor {label!r} but only {sorted(self.executors)} are configured"
            )
        return self.executors[label]

    def _sanitize_arguments(self, record: TaskRecord) -> Tuple[Tuple, Dict[str, Any]]:
        """Replace futures in the arguments with their concrete values (a
        DataFuture with its File), through lists, tuples and dicts."""

        def resolve(value: Any) -> Any:
            if isinstance(value, DataFuture):
                return value.file_obj
            if isinstance(value, Future):
                return value.result()
            if isinstance(value, list):
                return [resolve(v) for v in value]
            if isinstance(value, tuple):
                return tuple(resolve(v) for v in value)
            if isinstance(value, dict):
                return {k: resolve(v) for k, v in value.items()}
            return value

        args = tuple(resolve(a) for a in record.args)
        kwargs = {k: resolve(v) for k, v in record.kwargs.items()}
        return args, kwargs

    # ------------------------------------------------------------ completion

    def _handle_exec_done(self, record: TaskRecord, exec_future: Future) -> None:
        if exec_future.cancelled():
            self._finish(record, States.failed, exception=_cancelled(record))
            return
        exc = exec_future.exception()
        if exc is not None:
            self._finish(record, States.failed, exception=exc)
        elif record.app_type == "join":
            self._handle_join(record, exec_future.result())
        else:
            self._finish(record, States.exec_done, result=exec_future.result())

    def _handle_join(self, record: TaskRecord, result: Any) -> None:
        """A join app returned; wait for its inner future(s) before finishing."""
        record.status = States.joining

        inner_futures: List[Future]
        if isinstance(result, Future):
            inner_futures = [result]
        elif isinstance(result, (list, tuple)) and all(isinstance(r, Future) for r in result):
            inner_futures = list(result)
        else:
            # Not a future at all: treat as a plain result (matches Parsl >=2023 semantics
            # of allowing join apps to return plain values).
            self._finish(record, States.exec_done, result=result)
            return

        pending = {"count": len(inner_futures)}
        lock = threading.Lock()

        def _inner_done(_fut: Future) -> None:
            with lock:
                pending["count"] -= 1
                remaining = pending["count"]
            if remaining > 0:
                return
            errors = [f.exception() for f in inner_futures if f.exception() is not None]
            if errors:
                self._finish(record, States.failed, exception=JoinError(errors, record.id))
            elif isinstance(result, Future):
                self._finish(record, States.exec_done, result=inner_futures[0].result())
            else:
                self._finish(record, States.exec_done,
                             result=[f.result() for f in inner_futures])

        for fut in inner_futures:
            fut.add_done_callback(_inner_done)

    def _finish(self, record: TaskRecord, state: States, result: Any = None,
                exception: Optional[BaseException] = None) -> None:
        """Move ``record`` to the final ``state``, resolve its AppFuture, drop it.

        The record leaves :attr:`tasks` only after the future is resolved and
        its callbacks have run, so "no longer in ``tasks``" implies "done" for
        :meth:`wait_for_current_tasks`; the per-state count moves in the same
        critical section, so :meth:`task_summary` never loses or doubles a task.
        """
        record.status = state
        try:
            if exception is not None:
                record.app_future.set_exception(exception)
            else:
                record.app_future.set_result(result)
        finally:
            with self._tasks_changed:
                del self.tasks[record.id]
                record.exec_future = None  # the AppFuture keeps the record alive
                self._finished_counts[state.name] += 1
                self._tasks_changed.notify_all()

    # ------------------------------------------------------------- lifecycle

    def wait_for_current_tasks(self, timeout: Optional[float] = None) -> None:
        """Block until every task submitted so far has reached a final state.

        Task failures are reported through the futures; waiting does not raise
        for them, so that callers can inspect all tasks.  Raises
        :class:`TimeoutError` if ``timeout`` seconds pass first.
        """
        with self._tasks_changed:
            waiting_for = set(self.tasks)
            if not self._tasks_changed.wait_for(
                    lambda: waiting_for.isdisjoint(self.tasks), timeout):
                raise TimeoutError(
                    f"{len(waiting_for.intersection(self.tasks))} task(s) still running "
                    f"after {timeout} s")

    def cancel_unstarted(self) -> None:
        """Fail every task submitted so far that has not started running.

        For an interrupted run, whose kernel is about to be cleared: clearing
        waits for every task, so a task still waiting for its dependencies, or
        queued behind the running ones, would otherwise start then.  A waiting
        task fails when it would launch.  A queued one is withdrawn when its
        executor can tell queued from running (:meth:`ParslExecutor.withdraw`).
        Both fail with :class:`~concurrent.futures.CancelledError`.  Running
        tasks, and one being launched at this moment, are left to the caller,
        which reaps their commands.
        """
        self._cancelled_below = self._task_id.peek()
        with self._tasks_changed:
            launched = [(record.executor, record.exec_future)
                        for record in self.tasks.values() if record.exec_future is not None]
        for executor, future in launched:
            self._executor_for(executor).withdraw(future)

    def task_summary(self) -> Dict[str, int]:
        """Counts of tasks per state name, finished and unfinished alike."""
        with self._tasks_changed:
            summary = self._finished_counts.copy()
            summary.update(record.status.name for record in self.tasks.values())
        return dict(summary)

    def cleanup(self) -> None:
        """Wait for outstanding tasks and shut down the executors.  Idempotent."""
        if self._shutdown:
            return
        self.wait_for_current_tasks()
        self._shutdown = True
        for executor in self.executors.values():
            try:
                executor.shutdown()
            except Exception:  # pragma: no cover - defensive
                logger.exception("error shutting down executor %s", executor.label)
        for callback in self._on_cleanup:
            try:
                callback()
            except Exception:  # pragma: no cover - defensive
                logger.exception("error in cleanup callback %r", callback)
        logger.info("DataFlowKernel in %s cleaned up", self.run_dir)

    def call_on_cleanup(self, callback: Callable[[], None]) -> None:
        """Have :meth:`cleanup` call ``callback`` once the executors are shut
        down: once, however often it is asked."""
        self._on_cleanup[callback] = None

    def __enter__(self) -> "DataFlowKernel":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.cleanup()


def _cancelled(record: TaskRecord) -> CancelledError:
    return CancelledError(f"task {record.id} ({record.func_name}) was cancelled "
                          "before it started")


class DataFlowKernelLoader:
    """Module-level singleton management: ``load`` / ``dfk`` / ``clear``.

    Mirrors ``parsl.load()`` semantics: loading twice without clearing is an
    error, and apps submitted with no loaded DFK raise
    :class:`~repro.parsl.errors.NoDataFlowKernelError`.
    """

    _dfk: Optional[DataFlowKernel] = None
    _lock = threading.Lock()

    @classmethod
    def load(cls, config: Optional[Config] = None) -> DataFlowKernel:
        with cls._lock:
            if cls._dfk is not None:
                raise ConfigurationError(
                    "A DataFlowKernel is already loaded; call clear() before load()"
                )
            cls._dfk = DataFlowKernel(config or Config.default())
            return cls._dfk

    @classmethod
    def dfk(cls) -> DataFlowKernel:
        if cls._dfk is None:
            raise NoDataFlowKernelError()
        return cls._dfk

    @classmethod
    def clear(cls) -> None:
        with cls._lock:
            if cls._dfk is not None:
                cls._dfk.cleanup()
                cls._dfk = None

    @classmethod
    def wait_for_current_tasks(cls) -> None:
        cls.dfk().wait_for_current_tasks()
