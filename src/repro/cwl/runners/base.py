"""Common machinery shared by the CWL runners.

A *runner* takes a loaded process plus a job order and produces an output
object, the same contract as ``cwltool workflow.cwl job.yml``.  Every runner
is an :class:`~repro.api.engine.Engine`: the registry's ``reference`` and
``toil`` entries are the two concrete runners in this package, which differ
in how they execute individual jobs:

* :class:`~repro.cwl.runners.reference.ReferenceRunner` executes each job as a
  local subprocess (optionally using a thread pool for independent jobs),
  mirroring ``cwltool`` / ``cwltool --parallel``.
* :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner` records each job in a
  file-based job store and dispatches it through a batch system (single machine
  or the simulated Slurm cluster), mirroring ``toil-cwl-runner``.

The Parsl bridge (:mod:`repro.core`) is effectively a third runner and is the
paper's contribution.

Running a job is a continuation (:mod:`repro.utils.continuation`).  Each
attempt injects its fault, then is ``CommandLineJob.probe``, then either
``CommandLineJob.cached_result`` (a hit, restored without yielding, so in a
workflow it completes on the dispatching thread) or a yield followed by
``CommandLineJob.execute(probe)`` (a miss, which spawns or is issued).  The
probe is handed on as a value, so each attempt is keyed once.  A probe
stays on the dispatching thread while it touches metadata only: one
that would hash large inputs or a large hit's bodies, or copy a hit's files
across devices, yields first.  The job's start, retries and end go to the
run's :class:`~repro.api.events.EventRecorder`, with the key and exit code
its :class:`~repro.cwl.job.JobResult` hands on.
"""

from __future__ import annotations

import functools
from abc import abstractmethod
from typing import Any, Callable, Dict, Optional

from repro.api.engine import Engine
from repro.api.events import EventRecorder, ExecutionHooks
from repro.api.result import ExecutionResult, run_result
from repro.cwl.errors import ValidationException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.job import JobResult
from repro.cwl.journal import run_journalled
from repro.cwl.retry import retrying
from repro.cwl.runtime import RuntimeContext, context_with_options
from repro.cwl.schema import CommandLineTool, ExpressionTool, Process, Workflow
from repro.cwl.types import coerce_file_inputs
from repro.cwl.validate import ensure_valid
from repro.cwl.workflow import WorkflowEngine
from repro.utils.continuation import Continuation, finish

#: ``on_retry(attempt, exc, delay_s)``, as :func:`retrying` calls it.
RetryCallback = Callable[[int, BaseException, float], None]


class BaseRunner(Engine):
    """Shared runner behaviour: validation, expression-tool handling, dispatch.

    A runner holds only what outlives one execution (its context and backend
    arguments).  Everything a run needs — its event recorder and its
    :class:`WorkflowEngine` with the node states and failures — is local to
    :meth:`execute`, so concurrent executions on one runner never share state.
    """

    name = "base"

    def __init__(self, runtime_context: Optional[RuntimeContext] = None,
                 parallel: bool = False, max_workers: int = 8, **options: Any) -> None:
        #: Every run option (cache, retries, timeout, ``on_error``, run dir,
        #: scheduler core, ...) lives on the context; ``options`` are context
        #: fields given flat, folded in by :func:`context_with_options`.
        self.runtime_context = context_with_options(runtime_context, options)
        self.parallel = parallel
        self.max_workers = max_workers

    def close(self) -> None:
        """Reap the scratch directories the context tracked.

        :meth:`RuntimeContext.close` is idempotent and safe under concurrent
        close, so racing ``Session.close`` / ``__exit__`` paths are fine.
        """
        self.runtime_context.close()

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

    def execute(self, process: Any, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        """Run any process (tool, expression tool or workflow), journalled
        when the context has a ``run_dir``."""
        process = self.load_process(process)
        return run_journalled(self.runtime_context, process, job_order, self.name,
                              functools.partial(self._run, process, job_order, hooks))

    def _run(self, process: Process, job_order: Dict[str, Any],
             hooks: Optional[ExecutionHooks],
             context: RuntimeContext) -> ExecutionResult:
        recorder = EventRecorder(hooks, context.journal)
        ensure_valid(process)
        job_order = dict(job_order or {})
        if isinstance(process, ExpressionTool):
            # A tool's job and a workflow coerce their job orders themselves.
            job_order = {k: coerce_file_inputs(v) for k, v in job_order.items()}
        run_job = functools.partial(self._observed, recorder)
        if not isinstance(process, Workflow):
            outputs = finish(run_job(process, job_order,
                                     context.node_context(process.job_name)))
            return run_result(recorder, context, self.name, outputs)
        workflow = WorkflowEngine(
            process, process_runner=run_job, runtime_context=context,
            parallel=self.parallel, max_workers=self.max_workers,
            evaluator_for=self.evaluator_for)
        outputs = workflow.run(job_order)
        # Failed nodes only reach this point under on_error="continue": the
        # outputs are partial and the result says so instead of raising.
        return run_result(recorder, context, self.name, outputs, graph=workflow.graph,
                          failures=workflow.failures, node_states=workflow.node_states,
                          stage_timings=workflow.stage_timings)

    # ----------------------------------------------------------------- dispatch

    def _observed(self, recorder: EventRecorder, process: Process,
                  job_order: Dict[str, Any],
                  runtime_context: RuntimeContext) -> Continuation[Dict[str, Any]]:
        """Run one tool or expression-tool job, reporting its start, retries
        and end to ``recorder`` (the workflow engine's ``process_runner``).
        A continuation: it yields where the tool's run does.

        The end event's cache outcome, key and exit code come back with the
        tool's :class:`JobResult`; its attempt is one past the last retry this
        job reported, which holds for a failed job too.
        """
        if not isinstance(process, (CommandLineTool, ExpressionTool)):
            raise ValidationException(
                f"cannot run process of type {type(process).__name__}")
        token = recorder.job_started(process.job_name)
        retried = 0  # the last attempt that failed and was retried

        def on_retry(attempt: int, exc: BaseException, delay_s: float) -> None:
            nonlocal retried
            retried = attempt
            recorder.job_retry(token, attempt, error=str(exc), delay_s=delay_s)

        cache = key = exit_code = None
        try:
            if isinstance(process, ExpressionTool):
                outputs = self.run_expression_tool(process, job_order, runtime_context)
            else:
                result = yield from self.run_tool(process, job_order, runtime_context,
                                                  on_retry)
                outputs, key, exit_code = result.outputs, result.cache_key, result.exit_code
                if runtime_context.job_cache_dir() is not None:
                    cache = "hit" if result.cache_hit else "miss"
        except Exception as exc:
            recorder.job_finished(token, ok=False, error=str(exc), attempt=retried + 1)
            raise
        recorder.job_finished(token, cache=cache, attempt=retried + 1, tool=process.id,
                              key=key, exit_code=exit_code)
        return outputs

    def _with_retries(self, runtime_context: RuntimeContext, tool: CommandLineTool,
                      attempt: Callable[[int], Continuation[JobResult]],
                      on_retry: Optional[RetryCallback]) -> Continuation[JobResult]:
        """``attempt(n)``'s continuation under the context's retry policy +
        fault plan.

        The one retry loop every runner's ``run_tool`` goes through: faults
        inject *before* each attempt (ahead of any cache probe), each retry is
        reported through ``on_retry``, and the loop yields before a backoff.
        """
        policy = runtime_context.retry_policy
        plan = runtime_context.fault_plan
        if policy is None and plan is None:
            return attempt(1)
        return retrying(attempt, policy=policy, job=tool.job_name,
                        fault_plan=plan, on_retry=on_retry)

    # ------------------------------------------------------------- per-process

    @abstractmethod
    def run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                 runtime_context: RuntimeContext,
                 on_retry: Optional[RetryCallback] = None) -> Continuation[JobResult]:
        """The continuation of one CommandLineTool invocation, reporting each
        retry through ``on_retry``.  It yields once an attempt misses the job
        cache, before the tool runs; its result says whether it came from the
        cache."""

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
