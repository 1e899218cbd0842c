"""The :class:`Session` facade: one handle onto any registered engine.

A session binds an engine (by registry name or instance) with optional
:class:`~repro.api.events.ExecutionHooks` and offers:

* ``run(process, job_order) -> ExecutionResult`` — blocking execution,
* ``submit(process, job_order) -> ExecutionHandle`` — asynchronous execution
  on a background thread, with a Future-like handle.

Sessions are context managers; closing one shuts down the submit pool and
releases engine resources (Toil's job store / batch system, the Parsl
DataFlowKernel if the engine loaded it).
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any, Dict, Optional, Union

from repro.api.engine import Engine, get_engine
from repro.api.events import ExecutionHooks
from repro.api.plan import ExecutionPlan, plan as build_plan
from repro.api.result import ExecutionResult


class ExecutionHandle:
    """Future-like handle for an asynchronous :meth:`Session.submit`."""

    def __init__(self, future: "concurrent.futures.Future[ExecutionResult]",
                 engine: str) -> None:
        self._future = future
        self.engine = engine

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        """Block until the execution finishes; re-raises its failure."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self._future.exception(timeout)

    def done(self) -> bool:
        return self._future.done()

    def running(self) -> bool:
        return self._future.running()

    def cancel(self) -> bool:
        return self._future.cancel()

    def add_done_callback(self, fn: Any) -> None:
        self._future.add_done_callback(lambda _f: fn(self))

    def __repr__(self) -> str:
        state = "done" if self.done() else ("running" if self.running() else "pending")
        return f"<ExecutionHandle engine={self.engine!r} {state}>"


class Session:
    """Run CWL processes through one engine with one calling convention.

    Engine options pass through by keyword: each engine takes its backend
    arguments (``parallel=``/``max_workers=``, ``job_store_dir=``/
    ``batch_system=``, ``config=``) plus ``runtime_context=``, and any other
    keyword is a :class:`~repro.cwl.runtime.RuntimeContext` field given flat
    — ``Session(engine, outdir=..., cache_dir=..., retry_policy=...,
    timeout_s=..., on_error=..., pipeline=True)`` — which overrides that
    field of the context on *any* engine (README "Configuring a run" lists
    every option and the engines that honour it).
    """

    def __init__(self, engine: Union[str, Engine] = "reference",
                 hooks: Optional[ExecutionHooks] = None,
                 **engine_options: Any) -> None:
        if isinstance(engine, Engine):
            if engine_options:
                raise ValueError("engine options are only accepted together with "
                                 "an engine *name* (got an Engine instance)")
            self.engine = engine
        else:
            self.engine = get_engine(engine, **engine_options)
        self.hooks = hooks
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- execution

    def run(self, process: Any, job_order: Optional[Dict[str, Any]] = None,
            hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        """Execute ``process`` and block until its outputs are concrete."""
        if self._closed:
            raise RuntimeError("session is closed")
        return self.engine.execute(process, job_order or {}, hooks or self.hooks)

    def plan(self, process: Any) -> ExecutionPlan:
        """Compile ``process`` into its dataflow plan without executing it.

        Returns the :class:`~repro.api.plan.ExecutionPlan` built from the same
        :class:`~repro.cwl.graph.WorkflowGraph` IR every engine executes from
        (nodes, dependency edges, critical path, scatter nodes).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        return build_plan(process)

    def submit(self, process: Any, job_order: Optional[Dict[str, Any]] = None,
               hooks: Optional[ExecutionHooks] = None) -> ExecutionHandle:
        """Start ``process`` on a background thread; returns a handle."""
        if self._closed:
            raise RuntimeError("session is closed")
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="repro-api")
            future = self._pool.submit(
                self.engine.execute, process, job_order or {}, hooks or self.hooks)
        return ExecutionHandle(future, self.engine.name)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Wait for submitted work, then release engine resources."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<Session engine={self.engine.name!r}{' closed' if self._closed else ''}>"


def run(process: Any, job_order: Optional[Dict[str, Any]] = None, *,
        engine: Union[str, Engine] = "reference",
        hooks: Optional[ExecutionHooks] = None,
        **engine_options: Any) -> ExecutionResult:
    """One-shot execution: ``repro.api.run(doc, order, engine="toil")``.

    Opens a short-lived :class:`Session`, runs the process and closes the
    session again (releasing any backend the engine had to start).
    """
    with Session(engine=engine, hooks=hooks, **engine_options) as session:
        return session.run(process, job_order)


def submit(process: Any, job_order: Optional[Dict[str, Any]] = None, *,
           engine: Union[str, Engine] = "reference",
           hooks: Optional[ExecutionHooks] = None,
           **engine_options: Any) -> ExecutionHandle:
    """One-shot asynchronous execution; the session closes itself when done.

    The worker thread closes the session *before* resolving the handle, so by
    the time ``handle.result()`` returns, engine cleanup (job store, batch
    system, DataFlowKernel) has already happened.  The thread is non-daemonic:
    cleanup also runs if the interpreter exits while work is in flight.
    """
    session = Session(engine=engine, hooks=hooks, **engine_options)
    future: "concurrent.futures.Future[ExecutionResult]" = concurrent.futures.Future()

    def work() -> None:
        try:
            result = session.engine.execute(process, job_order or {},
                                            hooks or session.hooks)
        except BaseException as exc:  # resolved below, after cleanup
            outcome: Any = exc
            failed = True
        else:
            outcome = result
            failed = False
        try:
            session.close()
        except Exception:
            pass
        if failed:
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    threading.Thread(target=work, name="repro-api-submit").start()
    return ExecutionHandle(future, session.engine.name)
