"""The DataFlowKernel (DFK).

The DFK is the heart of the Parsl programming model: every app invocation is
submitted to it, it tracks dependencies between tasks through the futures passed
as arguments, launches tasks on executors once their dependencies are met,
handles retries, memoization and join apps, and exposes the familiar module
level ``load`` / ``dfk`` / ``clear`` entry points through
:class:`DataFlowKernelLoader`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parsl.config import Config
from repro.parsl.data_provider.files import File
from repro.parsl.data_provider.staging import DataManager
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.parsl.dataflow.memoization import Memoizer
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
from repro.parsl.monitoring.monitoring import MonitoringHub
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

        self.tasks: Dict[int, TaskRecord] = {}
        self._task_id = RunIdGenerator()
        self._tasks_lock = threading.Lock()
        self._shutdown = False

        self.memoizer = Memoizer(enabled=config.app_cache,
                                 checkpoint_files=config.checkpoint_files)
        self.data_manager = DataManager(config.staging_providers)
        self.monitoring: Optional[MonitoringHub] = None
        if config.monitoring:
            self.monitoring = MonitoringHub(run_dir=self.run_dir)
            self.monitoring.start()

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
        cache: bool = False,
        ignore_for_cache: Sequence[str] = (),
        join: bool = False,
    ) -> AppFuture:
        """Register one app invocation and return its :class:`AppFuture`."""
        if self._shutdown:
            raise DataFlowKernelShutdownError("DataFlowKernel has been cleaned up")

        task_id = self._task_id.next()
        record = TaskRecord(
            id=task_id,
            func=func,
            func_name=getattr(func, "__name__", repr(func)),
            args=tuple(app_args),
            kwargs=dict(app_kwargs),
            app_type="join" if join else app_type,
            executor=executor_label,
            retries_left=self.config.retries,
            memoize=cache,
            ignore_for_cache=tuple(ignore_for_cache),
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

        # Stage in File arguments (inputs kwarg and any File anywhere in args).
        inputs = record.kwargs.get("inputs") or []
        staged_inputs = []
        for item in inputs:
            if isinstance(item, File):
                staged_inputs.append(self.data_manager.stage_in(item))
            else:
                staged_inputs.append(item)
        if inputs:
            record.kwargs["inputs"] = staged_inputs

        with self._tasks_lock:
            self.tasks[task_id] = record
        record.transition(States.pending)
        if self.monitoring:
            self.monitoring.send_task_event(record)

        # Collect dependencies and register launch-on-completion callbacks.
        depends = self._gather_dependencies(record.args, record.kwargs)
        record.depends = depends
        logger.debug("task %s (%s) has %d dependencies", task_id, record.func_name, len(depends))

        if not depends:
            self._launch_if_ready(record)
        else:
            pending = {"count": len(depends)}
            pending_lock = threading.Lock()

            def _dependency_done(_fut: Future, rec: TaskRecord = record) -> None:
                with pending_lock:
                    pending["count"] -= 1
                    remaining = pending["count"]
                if remaining == 0:
                    self._launch_if_ready(rec)

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

    def _launch_if_ready(self, record: TaskRecord) -> None:
        """Launch ``record`` onto an executor, or fail it if a dependency failed.

        The executor submission (and the completion callback registration) happen
        *outside* the task lock: a fast-failing task's future can be complete by
        the time the callback is attached, which would re-enter this method from
        the same call stack during a retry and deadlock on the non-reentrant lock.
        """
        with record.lock:
            if record.status not in (States.pending, States.retry):
                return

            failed_deps = [d for d in record.depends if d.done() and d.exception() is not None]
            if failed_deps:
                record.transition(States.dep_fail)
                error = DependencyError([d.exception() for d in failed_deps], record.id)
                record.app_future.set_exception(error)
                self._record_event(record)
                return

            args, kwargs = self._sanitize_arguments(record)

            memo_result = self.memoizer.check(record)
            if memo_result is not None:
                record.from_memo = True
                record.transition(States.memo_done)
                record.app_future.set_result(memo_result)
                self._record_event(record)
                return

            try:
                executor = self._executor_for(record.executor)
            except Exception as exc:
                record.transition(States.failed)
                record.app_future.set_exception(exc)
                self._record_event(record)
                return
            record.transition(States.launched)
            self._record_event(record)

        try:
            exec_future = executor.submit(record.func, record.resource_spec, *args, **kwargs)
        except Exception as exc:
            logger.exception("executor submission failed for task %s", record.id)
            record.transition(States.failed)
            record.app_future.set_exception(exc)
            self._record_event(record)
            return
        record.executor_future = exec_future
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
        """Replace futures in the arguments with their concrete values.

        Identity-preserving: containers holding no futures pass through as
        the caller's objects rather than copies — callers may legitimately
        share a mutable argument with the execution side (e.g. the CWL job
        cache's per-call outcome note), and rebuilding untouched containers
        was wasted work anyway.
        """

        def resolve(value: Any) -> Any:
            if isinstance(value, DataFuture):
                return value.file_obj
            if isinstance(value, Future):
                return value.result()
            if isinstance(value, list):
                resolved = [resolve(v) for v in value]
                return value if all(n is o for n, o in zip(resolved, value)) else resolved
            if isinstance(value, tuple):
                resolved_items = [resolve(v) for v in value]
                return value if all(n is o for n, o in zip(resolved_items, value)) \
                    else tuple(resolved_items)
            if isinstance(value, dict):
                resolved_map = {k: resolve(v) for k, v in value.items()}
                return value if all(resolved_map[k] is v for k, v in value.items()) \
                    else resolved_map
            return value

        args = tuple(resolve(a) for a in record.args)
        kwargs = {k: resolve(v) for k, v in record.kwargs.items()}
        return args, kwargs

    # ------------------------------------------------------------ completion

    def _handle_exec_done(self, record: TaskRecord, exec_future: Future) -> None:
        exc = exec_future.exception()
        if exc is not None:
            self._handle_failure(record, exc)
            return

        result = exec_future.result()
        if record.app_type == "join":
            self._handle_join(record, result)
            return
        self._finalize_success(record, result)

    def _handle_failure(self, record: TaskRecord, exc: BaseException) -> None:
        record.fail_count += 1
        record.fail_history.append(f"{type(exc).__name__}: {exc}")
        if record.retries_left > 0:
            record.retries_left -= 1
            logger.info("task %s failed (%s); retrying (%d retries left)",
                        record.id, exc, record.retries_left)
            record.transition(States.retry)
            self._record_event(record)
            self._launch_if_ready(record)
            return
        record.transition(States.failed)
        record.app_future.set_exception(exc)
        self._record_event(record)

    def _handle_join(self, record: TaskRecord, result: Any) -> None:
        """A join app returned; wait for its inner future(s) before finishing."""
        record.transition(States.joining)
        self._record_event(record)

        inner_futures: List[Future]
        if isinstance(result, Future):
            inner_futures = [result]
        elif isinstance(result, (list, tuple)) and all(isinstance(r, Future) for r in result):
            inner_futures = list(result)
        else:
            # Not a future at all: treat as a plain result (matches Parsl >=2023 semantics
            # of allowing join apps to return plain values).
            self._finalize_success(record, result)
            return

        record.join_future = result
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
                record.transition(States.failed)
                record.app_future.set_exception(JoinError(errors, record.id))
                self._record_event(record)
            elif isinstance(result, Future):
                self._finalize_success(record, inner_futures[0].result())
            else:
                self._finalize_success(record, [f.result() for f in inner_futures])

        for fut in inner_futures:
            fut.add_done_callback(_inner_done)

    def _finalize_success(self, record: TaskRecord, result: Any) -> None:
        self.memoizer.update(record, result)
        record.transition(States.exec_done)
        record.app_future.set_result(result)
        self._record_event(record)

    def _record_event(self, record: TaskRecord) -> None:
        if self.monitoring:
            self.monitoring.send_task_event(record)

    # ------------------------------------------------------------- lifecycle

    def wait_for_current_tasks(self, timeout: Optional[float] = None) -> None:
        """Block until every task submitted so far has reached a final state."""
        with self._tasks_lock:
            futures = [t.app_future for t in self.tasks.values() if t.app_future is not None]
        for future in futures:
            if future is None:
                continue
            try:
                future.exception(timeout)
            except TimeoutError:
                raise
            except Exception:
                # Task failures are reported through the future itself; waiting
                # must not raise so that callers can inspect all tasks.
                pass

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Write the memoization table to disk and return the checkpoint path."""
        path = path or os.path.join(self.run_dir, "checkpoint", "tasks.pkl")
        return self.memoizer.checkpoint(path)

    def task_summary(self) -> Dict[str, int]:
        """Counts of tasks per state name (used by monitoring and tests)."""
        summary: Dict[str, int] = {}
        with self._tasks_lock:
            for record in self.tasks.values():
                summary[record.status.name] = summary.get(record.status.name, 0) + 1
        return summary

    def cleanup(self) -> None:
        """Shut down executors and monitoring.  Idempotent."""
        if self._shutdown:
            return
        self.wait_for_current_tasks()
        self._shutdown = True
        if self.config.checkpoint_mode == "dfk_exit" and self.config.app_cache:
            try:
                self.checkpoint()
            except Exception:  # pragma: no cover - checkpointing is best effort
                logger.exception("checkpoint at exit failed")
        for executor in self.executors.values():
            try:
                executor.shutdown()
            except Exception:  # pragma: no cover - defensive
                logger.exception("error shutting down executor %s", executor.label)
        if self.monitoring:
            self.monitoring.close()
        logger.info("DataFlowKernel in %s cleaned up", self.run_dir)

    def __enter__(self) -> "DataFlowKernel":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.cleanup()


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
