"""The ``parsl`` and ``parsl-workflow`` engines: the paper's Parsl bridge.

Their own module so that only a session that asks for them imports the Parsl
substrate (see :mod:`repro.api.engine` for the table of built-in engines).
Everything :meth:`ParslEngine.execute` needs is imported here, at engine
construction, not inside the run.

The ``parsl`` engine's tool run is the paper's §III-B runner, which
:func:`~repro.core.runner.run_tool_with_parsl` and the ``parsl-cwl`` command
line open, execute and close: the runners' job routine,
:func:`~repro.cwl.runners.base.run_job`, run to its end on the calling
thread as every bridge step runs, with one
:class:`~repro.core.cwl_app.CWLApp` call in the tool's node directory under
the run's root (:func:`~repro.core.workflow_bridge.run_app`) as its
``run_tool``.  An ExpressionTool is evaluated inline, with no ``AppFuture``.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Dict, Optional

from repro.api.engine import Engine, EngineError
from repro.api.events import EventRecorder, ExecutionHooks
from repro.api.result import ExecutionResult, run_result
from repro.core.cwl_app import CWLApp, running_jobs
from repro.core.runner import ensure_kernel
from repro.core.workflow_bridge import CWLWorkflowBridge, run_app
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.journal import run_journalled
from repro.cwl.runners.base import run_job
from repro.cwl.runtime import RuntimeContext, context_with_options
from repro.cwl.schema import Workflow
from repro.cwl.validate import ensure_valid
from repro.parsl.dataflow.dflow import DataFlowKernelLoader
from repro.utils.continuation import finish


class ParslEngine(Engine):
    """Execute through the paper's Parsl bridge.

    A CommandLineTool is one :class:`CWLApp` call (§III-B), an ExpressionTool
    is evaluated inline; a Workflow goes through the :class:`CWLWorkflowBridge`
    (the paper's future-work extension).
    The engine loads a DataFlowKernel from ``config`` on first use — or reuses
    an already-loaded one — and clears it on :meth:`close` only if it loaded
    the kernel itself, so it embeds cleanly in larger Parsl programs.
    """

    name = "parsl"

    def __init__(self, config: Any = None,
                 runtime_context: Optional[RuntimeContext] = None,
                 **options: Any) -> None:
        self._config = config
        #: The run options, honoured Parsl-side: every tool invocation, bare
        #: or a workflow step, retries on the execution side around its cache
        #: probe (so injected faults behave identically warm or cold), and
        #: its timeout is enforced there by the runners' launcher; ``on_error`` governs
        #: whether a failed workflow step aborts the bridge run, and
        #: ``max_inflight`` caps the workflow steps whose task is unfinished.
        self._context = context_with_options(runtime_context, options)
        self._started = False
        self._loaded_here = False
        self._kernel_lock = threading.Lock()

    # -------------------------------------------------------------- lifecycle

    def _ensure_kernel(self) -> None:
        with self._kernel_lock:
            self._ensure_kernel_locked()

    def _ensure_kernel_locked(self) -> None:
        if not self._started:
            self._loaded_here = ensure_kernel(self._config)
            self._started = True

    def close(self) -> None:
        if self._started and self._loaded_here:
            DataFlowKernelLoader.clear()
        self._started = False
        self._loaded_here = False

    # -------------------------------------------------------------- execution

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        """Run a tool or workflow.  Clearing the kernel waits for every task,
        so an interrupted run cancels the tasks that have not started and
        hands its running commands to the context to reap."""
        process = self.load_process(process)
        try:
            return run_journalled(self._context, process, job_order, self.name,
                                  functools.partial(self._run, process, job_order, hooks))
        except KeyboardInterrupt:
            if self._started:
                DataFlowKernelLoader.dfk().cancel_unstarted()
            for proc in running_jobs():
                self._context.register_process(proc)
            raise

    def _run(self, process, job_order: Dict[str, Any], hooks: Optional[ExecutionHooks],
             context: RuntimeContext) -> ExecutionResult:
        self._ensure_kernel()
        recorder = EventRecorder(hooks, context.journal)
        job_order = dict(job_order or {})
        if isinstance(process, Workflow):
            bridge = CWLWorkflowBridge(process, job_observer=recorder,
                                       runtime_context=context)
            outputs = bridge.run(job_order)
            return run_result(recorder, context, self.name, outputs, graph=bridge.graph,
                              failures=bridge.failures, node_states=bridge.node_states)
        ensure_valid(process)
        outputs = finish(run_job(
            recorder, process, job_order, context.node_context(process.job_name),
            lambda tool, *args: run_app(CWLApp(tool, runtime_context=context), *args),
            precompile_process))
        return run_result(recorder, context, self.name, outputs)


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
