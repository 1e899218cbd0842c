"""Common machinery shared by the CWL runners.

A *runner* takes a loaded process plus a job order and produces an output
object, the same contract as ``cwltool workflow.cwl job.yml``.  The two
concrete runners in this package differ in how they execute individual jobs:

* :class:`~repro.cwl.runners.reference.ReferenceRunner` executes each job as a
  local subprocess (optionally using a thread pool for independent jobs),
  mirroring ``cwltool`` / ``cwltool --parallel``.
* :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner` records each job in a
  file-based job store and dispatches it through a batch system (single machine
  or the simulated Slurm cluster), mirroring ``toil-cwl-runner``.

The Parsl bridge (:mod:`repro.core`) is effectively a third runner and is the
paper's contribution.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cwl.errors import ValidationException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.retry import RetryObservation, execute_with_retries
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, ExpressionTool, Process, Workflow
from repro.cwl.types import coerce_file_inputs
from repro.cwl.validate import ensure_valid
from repro.cwl.workflow import WorkflowEngine


@dataclass
class RunnerResult:
    """Output object plus bookkeeping from one runner invocation."""

    outputs: Dict[str, Any]
    status: str = "success"
    #: Number of individual tool jobs that were executed.
    jobs_run: int = 0
    #: Wall-clock seconds, filled in by the runner.
    wall_time_s: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)


class BaseRunner(ABC):
    """Shared runner behaviour: validation, expression-tool handling, dispatch."""

    name = "base"

    def __init__(self, runtime_context: Optional[RuntimeContext] = None,
                 parallel: bool = False, max_workers: int = 8,
                 validate: bool = True) -> None:
        #: Every run option (cache, retries, timeout, ``on_error``, journal,
        #: scheduler core, ...) lives on the context; runners take only it
        #: plus their backend arguments.
        self.runtime_context = runtime_context or RuntimeContext()
        self.validate = validate
        self.parallel = parallel
        self.max_workers = max_workers
        self.jobs_run = 0
        #: Per-stage wall time of the last pipelined workflow run.
        self.stage_timings: Optional[Dict[str, Any]] = None
        #: Scheduler node states / failures of the last workflow run (filled
        #: by ``run_workflow``; empty for single tools and fully green runs).
        self.node_states: Dict[str, str] = {}
        self.failures: Dict[str, BaseException] = {}
        #: Optional job observer (duck-typed ``job_started``/``job_finished``,
        #: see :class:`repro.api.events.EventRecorder`).  Set by the unified
        #: API engines; may be called from worker threads.
        self.hooks = None
        #: Per-thread side channel through which ``run_tool`` implementations
        #: annotate the *current* job's end event (e.g. cache hit/miss).  A
        #: thread-local works because ``_observed`` and the ``run_tool`` it
        #: wraps always share a thread, even when the actual execution is
        #: delegated elsewhere (the Toil batch system).
        self._job_meta = threading.local()

    def note_job_meta(self, **meta: Any) -> None:
        """Record metadata for the job currently observed on this thread."""
        current = getattr(self._job_meta, "value", None) or {}
        current.update(meta)
        self._job_meta.value = current

    def _with_retries(self, runtime_context: RuntimeContext, job_name: str,
                      fn) -> Any:
        """Run ``fn(attempt)`` under the context's retry policy + fault plan.

        The one retry loop every runner's ``run_tool`` goes through: faults
        inject *before* each attempt (ahead of any cache probe), retries are
        surfaced as ``"retry"`` events on the observer channel, and the final
        attempt number is noted on the job's end event.
        """
        policy = runtime_context.retry_policy
        plan = runtime_context.fault_plan
        if policy is None and plan is None:
            return fn(1)
        hooks = self.hooks

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            token = getattr(self._job_meta, "token", None)
            if hooks is not None and token is not None:
                hooks.job_retry(token, attempt, error=str(exc), delay_s=delay)
            if runtime_context.journal is not None:
                runtime_context.journal.record(
                    "retry", job=job_name, attempt=attempt, error=str(exc),
                    delay_s=delay)

        observation = RetryObservation()
        try:
            return execute_with_retries(
                fn, policy=policy, job=job_name, fault_plan=plan,
                observation=observation, on_retry=on_retry)
        finally:
            if observation.attempt > 1:
                self.note_job_meta(attempt=observation.attempt)

    def evaluator_for(self, process: Process) -> Any:
        """The expression evaluator every job, step and expression tool of
        ``process`` uses on this runner: the one place an engine's expression
        pipeline is chosen.  By default the process's own
        :class:`~repro.cwl.expressions.compiler.CompiledEvaluator`, so each
        string is compiled once per process object;
        :class:`~repro.cwl.runners.reference.ReferenceRunner` overrides it.
        """
        return precompile_process(process)

    # ------------------------------------------------------------------ public

    def run(self, process: Process, job_order: Dict[str, Any]) -> RunnerResult:
        """Run any process (tool, expression tool or workflow)."""
        import time

        start = time.perf_counter()
        self.jobs_run = 0
        self.node_states: Dict[str, str] = {}
        self.failures: Dict[str, BaseException] = {}
        if self.validate:
            ensure_valid(process)
        job_order = {k: coerce_file_inputs(v) for k, v in job_order.items()}
        outputs = self._run_process(process, job_order, self.runtime_context)
        elapsed = time.perf_counter() - start
        # Failed nodes only reach this point under on_error="continue": the
        # outputs are partial and the result says so instead of raising.
        details: Dict[str, Any] = {}
        if self.failures:
            details["failures"] = {node: str(exc)
                                   for node, exc in self.failures.items()}
        if self.node_states:
            details["node_states"] = dict(self.node_states)
        status = "permanentFail" if self.failures else "success"
        return RunnerResult(outputs=outputs, status=status, jobs_run=self.jobs_run,
                            wall_time_s=elapsed, details=details)

    # ----------------------------------------------------------------- dispatch

    def _run_process(self, process: Process, job_order: Dict[str, Any],
                     runtime_context: RuntimeContext) -> Dict[str, Any]:
        if isinstance(process, CommandLineTool):
            self.jobs_run += 1
            return self._observed(self.run_tool, process, job_order, runtime_context)
        if isinstance(process, ExpressionTool):
            self.jobs_run += 1
            return self._observed(self.run_expression_tool, process, job_order,
                                  runtime_context)
        if isinstance(process, Workflow):
            return self.run_workflow(process, job_order, runtime_context)
        raise ValidationException(f"cannot run process of type {type(process).__name__}")

    def _observed(self, method, process: Process, job_order: Dict[str, Any],
                  runtime_context: RuntimeContext) -> Dict[str, Any]:
        """Run one job, reporting start/end to the attached observer (if any)."""
        hooks = self.hooks
        if hooks is None:
            return method(process, job_order, runtime_context)
        token = hooks.job_started(process.id or type(process).__name__)
        self._job_meta.value = None
        self._job_meta.token = token
        try:
            outputs = method(process, job_order, runtime_context)
        except Exception as exc:
            meta = getattr(self._job_meta, "value", None) or {}
            self._job_meta.value = None
            self._job_meta.token = None
            hooks.job_finished(token, ok=False, error=str(exc),
                               attempt=meta.get("attempt", 1))
            raise
        meta = getattr(self._job_meta, "value", None) or {}
        self._job_meta.value = None
        self._job_meta.token = None
        hooks.job_finished(token, cache=meta.get("cache"),
                           attempt=meta.get("attempt", 1))
        return outputs

    # ------------------------------------------------------------- per-process

    @abstractmethod
    def run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                 runtime_context: RuntimeContext) -> Dict[str, Any]:
        """Execute one CommandLineTool invocation."""

    def run_workflow(self, workflow: Workflow, job_order: Dict[str, Any],
                     runtime_context: RuntimeContext) -> Dict[str, Any]:
        """Execute a Workflow on the shared :class:`WorkflowEngine`."""
        engine = WorkflowEngine(
            workflow,
            process_runner=self._run_process,
            runtime_context=runtime_context,
            parallel=self.parallel,
            max_workers=self.max_workers,
            evaluator_for=self.evaluator_for,
        )
        try:
            return engine.run(job_order)
        finally:
            self.node_states = engine.node_states
            self.failures = engine.failures
            self.stage_timings = engine.stage_timings

    def run_expression_tool(self, tool: ExpressionTool, job_order: Dict[str, Any],
                            runtime_context: RuntimeContext) -> Dict[str, Any]:
        """Execute an ExpressionTool by evaluating its expression."""
        evaluator = self.evaluator_for(tool)
        context = {"inputs": job_order, "self": None,
                   "runtime": runtime_context.runtime_object("", "")}
        result = evaluator.evaluate(tool.expression, context)
        if not isinstance(result, dict):
            raise ValidationException(
                f"ExpressionTool {tool.id!r} expression must evaluate to an object, got {type(result).__name__}"
            )
        return {param.id: result.get(param.id) for param in tool.outputs}
