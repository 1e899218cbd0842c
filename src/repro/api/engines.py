"""Built-in engines: the four execution paths behind one interface.

========================  =====================================================
registry name             wraps
========================  =====================================================
``reference``             :class:`~repro.cwl.runners.reference.ReferenceRunner`
                          (aliases ``cwltool``, ``cwltool-like``)
``toil``                  :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner`
                          (alias ``toil-like``)
``parsl``                 ``run_tool_with_parsl`` for CommandLineTools and the
                          workflow bridge for Workflows (alias ``parsl-cwl``)
``parsl-workflow``        :class:`~repro.core.workflow_bridge.CWLWorkflowBridge`
                          only — strict bridge semantics (alias ``bridge``)
========================  =====================================================

Engines hold backend state across runs (the Toil engine keeps its job store
and batch system, the Parsl engines keep the DataFlowKernel they loaded), so
one :class:`~repro.api.session.Session` amortises setup over many executions.

Expression handling differs by engine: ``reference`` keeps cwltool's
per-evaluation cost model (fresh JS engine, re-parsed expressionLib — the
Figure 2 baseline), while ``toil``, ``parsl`` and ``parsl-workflow`` default
to the compiled pipeline of :mod:`repro.cwl.expressions.compiler`; pass
``compile_expressions=`` to override either way.

Every engine constructor takes its backend arguments plus ``runtime_context=``
and nothing else: any other keyword is a :class:`RuntimeContext` field given
flat (``Session("toil", cache_dir=..., retry_policy=...)``) and is folded into
the context by :func:`_context_with_options`, so no engine re-declares a run
option.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, Optional

from repro.api.engine import Engine, EngineError, register_engine
from repro.api.events import EventRecorder, ExecutionHooks
from repro.api.plan import describe_workflow
from repro.api.result import ExecutionResult
from repro.cwl.runners.base import BaseRunner
from repro.cwl.runners.reference import ReferenceRunner
from repro.cwl.runners.toil.runner import ToilStyleRunner
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, Process, Workflow


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


class ToilEngine(RunnerEngine):
    """The Toil-like job-store runner behind the unified API."""

    name = "toil"

    def __init__(self, job_store_dir: Optional[str] = None,
                 batch_system: Any = None,
                 runtime_context: Optional[RuntimeContext] = None,
                 parallel: bool = True, max_workers: int = 8,
                 import_outputs: bool = True, validate: bool = True,
                 destroy_job_store_on_close: Optional[bool] = None,
                 **options: Any) -> None:
        super().__init__()
        self._options = dict(
            job_store_dir=job_store_dir, batch_system=batch_system,
            runtime_context=_context_with_options(runtime_context, options),
            parallel=parallel, max_workers=max_workers,
            import_outputs=import_outputs, validate=validate)
        self._destroy_job_store = destroy_job_store_on_close

    def _make_runner(self) -> BaseRunner:
        return ToilStyleRunner(**self._options)

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        result = super().execute(process, job_order, hooks)
        result.details.setdefault("job_store", self._runner.job_store.stats())  # type: ignore[union-attr]
        return result

    def close(self) -> None:
        """Deterministically release backend state on ``Session`` exit.

        The batch system always shuts down; the job store is destroyed when
        the runner created it itself (a temp directory) or when the caller
        asked via ``destroy_job_store_on_close=True`` — so context-managed
        sessions never leak stores or batch-system threads between runs.
        """
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.close(destroy_job_store=self._destroy_job_store)  # type: ignore[attr-defined]
            runner.runtime_context.close()


class ParslEngine(Engine):
    """Execute through the paper's Parsl bridge.

    CommandLineTools go through ``run_tool_with_parsl`` (§III-B); Workflows go
    through the :class:`CWLWorkflowBridge` (the paper's future-work extension).
    The engine loads a DataFlowKernel from ``config`` on first use — or reuses
    an already-loaded one — and clears it on :meth:`close` only if it loaded
    the kernel itself, so it embeds cleanly in larger Parsl programs.
    """

    name = "parsl"

    def __init__(self, config: Any = None, outdir: Optional[str] = None,
                 runtime_context: Optional[RuntimeContext] = None,
                 **options: Any) -> None:
        self._config = config
        self._outdir = outdir
        #: The run options, honoured Parsl-side: retries wrap whole tool
        #: invocations (cache probe included, so injected faults behave
        #: identically warm or cold), timeouts are enforced in-shell on the
        #: execution side, ``on_error`` governs whether a failed workflow
        #: step aborts the bridge run, and ``max_inflight`` bounds unfinished
        #: submissions during bridge submission.
        self._context = _context_with_options(runtime_context, options)
        self._started = False
        self._loaded_here = False
        self._kernel_lock = threading.Lock()

    # -------------------------------------------------------------- lifecycle

    def _ensure_kernel(self) -> None:
        with self._kernel_lock:
            self._ensure_kernel_locked()

    def _ensure_kernel_locked(self) -> None:
        from repro.core.yaml_config import load_yaml_config
        from repro.parsl.config import Config
        from repro.parsl.dataflow.dflow import DataFlowKernelLoader
        from repro.parsl.errors import NoDataFlowKernelError

        if self._started:
            return
        if self._config is not None:
            config = self._config
            if not isinstance(config, Config):
                config = load_yaml_config(config)
            DataFlowKernelLoader.load(config)
            self._loaded_here = True
        else:
            try:
                DataFlowKernelLoader.dfk()
            except NoDataFlowKernelError:
                DataFlowKernelLoader.load(Config.default())
                self._loaded_here = True
        self._started = True

    def close(self) -> None:
        from repro.parsl.dataflow.dflow import DataFlowKernelLoader

        if self._started and self._loaded_here:
            DataFlowKernelLoader.clear()
        self._started = False
        self._loaded_here = False

    # -------------------------------------------------------------- execution

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        process = self.load_process(process)
        recorder = self.recorder_for(hooks)
        self._ensure_kernel()
        start = time.perf_counter()
        failures: Dict[str, str] = {}
        if isinstance(process, Workflow):
            outputs, failures = self._run_workflow(process, dict(job_order or {}),
                                                   recorder)
        elif isinstance(process, CommandLineTool):
            outputs = self._run_tool(process, dict(job_order or {}), recorder)
        else:
            raise EngineError(
                f"the {self.name!r} engine cannot run a {type(process).__name__} "
                "(CommandLineTool or Workflow expected)"
            )
        jobs_run = sum(1 for e in recorder.events if e.kind == "start")
        # Counted from this execution's own per-job events (the store and its
        # counters are shared process-wide, so a counter delta would absorb
        # concurrent executions' traffic).
        cache_stats = _event_cache_stats(recorder) \
            if self._context.job_cache_dir() is not None else None
        details: Dict[str, Any] = {}
        if failures:
            details["failures"] = dict(failures)
        return ExecutionResult(
            outputs=outputs,
            status="permanentFail" if failures else "success",
            engine=self.name,
            jobs_run=jobs_run,
            wall_time_s=time.perf_counter() - start,
            events=recorder.events,
            details=details,
            plan=_plan_for(process),
            cache_stats=cache_stats,
            failures=failures,
        )

    def _run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                  recorder: EventRecorder) -> Dict[str, Any]:
        from repro.core.runner import run_tool_with_parsl
        from repro.cwl.retry import RetryObservation, execute_with_retries

        context = self._context
        job_name = tool.id or "tool"
        cache_note: Dict[str, str] = {}
        token = recorder.job_started(job_name)

        def attempt(_n: int) -> Dict[str, Any]:
            cache_note.clear()
            # The retry loop wraps the whole call — submission-side cache
            # probe included — so injected faults fire ahead of the probe,
            # exactly as on the runner engines.
            return run_tool_with_parsl(
                tool=tool, job_order=job_order, config=None,
                outdir=self._outdir, cleanup=False,
                runtime_context=context, cache_note=cache_note)

        def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
            recorder.job_retry(token, attempt_no, error=str(exc), delay_s=delay)
            if context.journal is not None:
                context.journal.record("retry", job=job_name, attempt=attempt_no,
                                       error=str(exc), delay_s=delay)

        observation = RetryObservation()
        try:
            outputs = execute_with_retries(
                attempt, policy=context.retry_policy, job=job_name,
                fault_plan=context.fault_plan, observation=observation,
                on_retry=on_retry)
        except Exception as exc:
            recorder.job_finished(token, ok=False, error=str(exc),
                                  attempt=observation.attempt)
            raise
        recorder.job_finished(token, cache=cache_note.get("cache"),
                              attempt=observation.attempt)
        return outputs

    def _run_workflow(self, workflow: Workflow, job_order: Dict[str, Any],
                      recorder: EventRecorder) -> tuple:
        from repro.core.workflow_bridge import CWLWorkflowBridge

        bridge = CWLWorkflowBridge(workflow, job_observer=recorder,
                                   runtime_context=self._context)
        outputs = bridge.run(job_order)
        failures = {name: str(exc) for name, exc in bridge.failures.items()}
        return ({key: _normalise_output(value) for key, value in outputs.items()},
                failures)


class ParslWorkflowEngine(ParslEngine):
    """The CWL Workflow -> Parsl bridge, with strict Workflow-only semantics."""

    name = "parsl-workflow"

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        loaded = self.load_process(process)
        if not isinstance(loaded, Workflow):
            raise EngineError(
                f"the {self.name!r} engine runs complete CWL Workflows; got "
                f"{type(loaded).__name__} (use engine='parsl' for single tools)"
            )
        return super().execute(loaded, job_order, hooks)


def _plan_for(process: Process) -> Optional[Dict[str, Any]]:
    """The graph summary attached to workflow results (best-effort)."""
    if not isinstance(process, Workflow):
        return None
    try:
        return describe_workflow(process)
    except Exception:  # introspection must never fail an execution
        return None


def _normalise_output(value: Any) -> Any:
    """Convert Parsl-side File objects into CWL File value dictionaries.

    The workflow bridge resolves its futures to Parsl ``File`` objects; the
    unified result promises the same CWL output-object shape as the runners.
    """
    from repro.cwl.types import build_file_value
    from repro.parsl.data_provider.files import File as ParslFile

    if isinstance(value, ParslFile):
        return build_file_value(value.filepath)
    if isinstance(value, list):
        return [_normalise_output(item) for item in value]
    return value


register_engine("reference", ReferenceEngine, aliases=("cwltool", "cwltool-like"))
register_engine("toil", ToilEngine, aliases=("toil-like",))
register_engine("parsl", ParslEngine, aliases=("parsl-cwl",))
register_engine("parsl-workflow", ParslWorkflowEngine, aliases=("bridge",))
