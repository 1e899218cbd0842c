"""Built-in engines: the four execution paths behind one interface.

========================  =====================================================
registry name             wraps
========================  =====================================================
``reference``             :class:`~repro.cwl.runners.reference.ReferenceRunner`
                          (aliases ``cwltool``, ``cwltool-like``)
``toil``                  :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner`
                          (alias ``toil-like``) — :mod:`repro.api.toil_engine`
``parsl``                 ``run_tool_with_parsl`` for CommandLineTools and the
                          workflow bridge for Workflows (alias ``parsl-cwl``)
                          — :mod:`repro.api.parsl_engines`
``parsl-workflow``        :class:`~repro.core.workflow_bridge.CWLWorkflowBridge`
                          only — strict bridge semantics (alias ``bridge``)
                          — :mod:`repro.api.parsl_engines`
========================  =====================================================

This module holds what the engines share and the ``reference`` engine; the
others live in modules of their own so that a session imports only the
substrate of the engine it asked for (the registry in :mod:`repro.api.engine`
names them by dotted path).

Engines hold backend state across runs (the Toil engine keeps its job store
and batch system, the Parsl engines keep the DataFlowKernel they loaded), so
one :class:`~repro.api.session.Session` amortises setup over many executions.

Expression handling is a property of the engine, not a run option:
``reference`` keeps cwltool's per-evaluation cost model (a fresh library
scope and a re-parse per JavaScript evaluation — the Figure 2 baseline), while
``toil``, ``parsl`` and ``parsl-workflow`` compile each string of a document
once (:mod:`repro.cwl.expressions.compiler`).

Every engine constructor takes its backend arguments plus ``runtime_context=``
and nothing else: any other keyword is a :class:`RuntimeContext` field given
flat (``Session("toil", cache_dir=..., retry_policy=...)``) and is folded into
the context by :func:`_context_with_options`, so no engine re-declares a run
option.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Optional

from repro.api.engine import Engine
from repro.api.events import EventRecorder, ExecutionHooks
from repro.api.plan import describe_workflow
from repro.api.result import ExecutionResult
from repro.cwl.runners.base import BaseRunner
from repro.cwl.runners.reference import ReferenceRunner
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import Process, Workflow


def _context_with_options(runtime_context: Optional[RuntimeContext],
                          options: Dict[str, Any]) -> RuntimeContext:
    """Fold flat keyword options into a :class:`RuntimeContext`.

    The one place ``Session(engine, cache_dir=...)`` /
    ``api.run(..., retry_policy=...)`` keywords become context fields.  An
    explicit keyword overrides the given context's field; ``None`` means
    "keep the context's setting"; a name that is not a public context field
    raises :exc:`TypeError`.
    """
    known = {f.name for f in dataclasses.fields(RuntimeContext)
             if not f.name.startswith("_")}
    unknown = sorted(set(options) - known)
    if unknown:
        raise TypeError(f"unknown engine option(s) {unknown}; run options are "
                        f"the RuntimeContext fields {sorted(known)}")
    context = runtime_context if runtime_context is not None else RuntimeContext()
    overrides = {k: v for k, v in options.items() if v is not None}
    return context.child(**overrides) if overrides else context


def _event_cache_stats(recorder: EventRecorder) -> Dict[str, int]:
    """Exact hit/miss counts from the per-job end events of one execution."""
    hits = sum(1 for e in recorder.events if e.kind == "end" and e.cache == "hit")
    misses = sum(1 for e in recorder.events if e.kind == "end" and e.cache == "miss")
    return {"hits": hits, "misses": misses}


class RunnerEngine(Engine):
    """Shared adapter for the :class:`BaseRunner` subclasses.

    The underlying runner holds mutable per-run state (``jobs_run``, the
    attached observer), so executions are serialised on a lock: concurrent
    :meth:`Session.submit` calls queue here while each *run* still
    parallelises internally as the runner is configured to.
    """

    def __init__(self) -> None:
        self._runner: Optional[BaseRunner] = None
        self._execute_lock = threading.Lock()

    def _make_runner(self) -> BaseRunner:
        raise NotImplementedError

    def _get_runner(self) -> BaseRunner:
        if self._runner is None:
            self._runner = self._make_runner()
        return self._runner

    def close(self) -> None:
        """Release runner state; reaps scratch directories the context tracked.

        :meth:`RuntimeContext.close` is idempotent and safe under concurrent
        close, so racing ``Session.close`` / ``__exit__`` paths are fine.
        """
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.runtime_context.close()

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        process = self.load_process(process)
        recorder = self.recorder_for(hooks)
        with self._execute_lock:
            runner = self._get_runner()
            runner.hooks = recorder
            try:
                runner_result = runner.run(process, dict(job_order or {}))
            finally:
                runner.hooks = None
            cache_enabled = runner.runtime_context.job_cache_dir() is not None
        details = dict(runner_result.details)
        return ExecutionResult(
            outputs=runner_result.outputs,
            status=runner_result.status,
            engine=self.name,
            jobs_run=runner_result.jobs_run,
            wall_time_s=runner_result.wall_time_s,
            events=recorder.events,
            details=details,
            plan=_plan_for(process),
            cache_stats=_event_cache_stats(recorder) if cache_enabled else None,
            failures=dict(details.get("failures", {})),
            node_states=dict(details.get("node_states", {})),
            stage_timings=runner.stage_timings,
        )


class ReferenceEngine(RunnerEngine):
    """The cwltool-like reference runner behind the unified API."""

    name = "reference"

    def __init__(self, runtime_context: Optional[RuntimeContext] = None,
                 parallel: bool = False, max_workers: int = 8,
                 validate: bool = True, **options: Any) -> None:
        super().__init__()
        self._options = dict(
            runtime_context=_context_with_options(runtime_context, options),
            parallel=parallel, max_workers=max_workers, validate=validate)

    def _make_runner(self) -> BaseRunner:
        return ReferenceRunner(**self._options)


def _plan_for(process: Process) -> Optional[Dict[str, Any]]:
    """The graph summary attached to workflow results (best-effort)."""
    if not isinstance(process, Workflow):
        return None
    try:
        return describe_workflow(process)
    except Exception:  # introspection must never fail an execution
        return None
