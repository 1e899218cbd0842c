"""Execute complete CWL Workflows through Parsl (the paper's stated future work).

The paper's ``parsl-cwl`` prototype only runs single CommandLineTools; §VIII
lists "support in Parsl to run complete CWL workflows" as future work.  This
module implements that extension so the evaluation workflow (Listing 3) can be
run either through the hand-written Parsl program of Listing 4 *or* directly
from its CWL Workflow definition.

The bridge interprets no workflow wiring itself: :meth:`CWLWorkflowBridge.run`
is the shared :class:`~repro.cwl.workflow.WorkflowEngine` — the one
implementation of sources, ``linkMerge``, defaults, ``valueFrom``, ``when``,
ingress/egress, scatter and output collection under all four engines — run
with ``parallel=True`` and the runners' process runner,
:func:`~repro.cwl.runners.base.run_job`, which reports every job and
evaluates an ExpressionTool step inline on the dispatching thread.  What
stays Parsl's own is the segment that runs a CommandLineTool, :func:`run_app`:
it submits the step's :class:`~repro.core.cwl_app.CWLApp` with the step's
CWL job order as it is and yields the ``AppFuture``.  The scheduler parks
the node on it, without a thread waiting, and resumes it on the dispatching
thread once the task is done.  The task's value is the job's
:class:`~repro.cwl.job.JobResult`: the outputs it collected in the node's
directory, ``<root>/<node path>``, its cache key and outcome, and its
retries, which :func:`run_app` replays.  The outputs are *values*, which is
what the successors are submitted with (a task returns its result, and the
next task is submitted with that value), on a thread pool and across a
process boundary alike.  An ``outputEval``, a wildcard glob, a scatter over
an upstream array, ``$(inputs.f.size)`` of an upstream File and the
``format`` of an input File therefore behave as on the runners.  Parsl's
dataflow kernel runs each task, and ``max_inflight`` caps the parked nodes.

:meth:`CWLWorkflowBridge.run` stages the outputs into the context's
``outdir`` when it names one, as every engine does.
"""

from __future__ import annotations

import concurrent.futures as cf
import functools
import os
import sys
import threading
from typing import Any, Dict, Optional, Union

from repro.api.events import EventRecorder
from repro.core.cwl_app import CWLApp
from repro.cwl.errors import WorkflowException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.graph import WorkflowGraph, build_graph
from repro.cwl.job import JobResult
from repro.cwl.loader import load_document
from repro.cwl.outputs import run_in_root
from repro.cwl.runners.base import RetryCallback, run_job
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, Workflow
from repro.cwl.validate import ensure_valid
from repro.cwl.workflow import WorkflowEngine
from repro.parsl.dataflow.dflow import DataFlowKernel
from repro.utils.continuation import Continuation


def run_app(app: CWLApp, job_order: Dict[str, Any], context: RuntimeContext,
            on_retry: Optional[RetryCallback] = None) -> Continuation[JobResult]:
    """One ``CWLApp`` call as the continuation of a runner's ``run_tool``
    (:meth:`~repro.cwl.runners.base.BaseRunner.run_tool`), in ``context``'s
    ``job_dir``: it submits the call and yields its ``AppFuture``.

    Resumed, it replays through ``on_retry`` each retry the execution side
    made, carried by the task's value or its error, and returns that value:
    the job's :class:`~repro.cwl.job.JobResult`, with the outputs it
    collected in its directory, its cache key, outcome and exit code.
    """
    future = app(**job_order, _node=context)
    yield future
    error = future.exception()
    if on_retry is not None:
        retries = future.result().retries if error is None else getattr(error, "retries", ())
        for retry in retries:
            on_retry(*retry)
    return future.result()


class CWLWorkflowBridge:
    """Convert a CWL Workflow into a Parsl dataflow and run it."""

    def __init__(self, workflow: Union[str, os.PathLike, Workflow],
                 data_flow_kernel: Optional[DataFlowKernel] = None,
                 job_observer: Optional[Any] = None,
                 runtime_context: Optional[RuntimeContext] = None) -> None:
        #: The run options (see :class:`~repro.cwl.runtime.RuntimeContext`),
        #: read as on every engine: ``on_error`` (``"stop"`` re-raises the
        #: first failed step from :meth:`run`; ``"continue"`` resolves
        #: unaffected outputs and records the failed steps in
        #: :attr:`failures`), ``journal`` (node states) and ``max_inflight``
        #: (the cap on steps whose task is unfinished); every step's
        #: :class:`CWLApp` gets the whole context.
        self.runtime_context = runtime_context or RuntimeContext()
        on_error = self.runtime_context.on_error
        if on_error not in ("stop", "continue"):
            raise ValueError(f"on_error must be 'stop' or 'continue', got {on_error!r}")
        if isinstance(workflow, Workflow):
            self.workflow = workflow
        else:
            loaded = load_document(workflow)
            if not isinstance(loaded, Workflow):
                raise WorkflowException(f"{workflow} is not a CWL Workflow")
            self.workflow = loaded
        ensure_valid(self.workflow)
        #: The shared dataflow IR, compiled once here; every :meth:`run` runs it.
        self.graph: WorkflowGraph = build_graph(self.workflow)
        self.data_flow_kernel = data_flow_kernel
        #: Optional job observer (duck-typed, see
        #: :class:`repro.api.events.EventRecorder`): told when a step's job
        #: starts, retried and how it ended.  Without one, each run reports
        #: to a recorder of its own, with no hooks and no journal.
        self.job_observer = job_observer
        #: Failed node id → exception, from the last :meth:`run`.
        self.failures: Dict[str, BaseException] = {}
        #: Node id → final scheduler state, from the last :meth:`run`.
        self.node_states: Dict[str, str] = {}
        self._apps: Dict[int, CWLApp] = {}

    def submit(self, job_order: Dict[str, Any]) -> "cf.Future[Dict[str, Any]]":
        """:meth:`run` on a thread of its own: a future of the output object."""
        future: "cf.Future[Dict[str, Any]]" = cf.Future()

        def run() -> None:
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(self.run(job_order))
                except BaseException as exc:  # noqa: BLE001 — handed to the future
                    future.set_exception(exc)

        threading.Thread(target=run, name="cwl-bridge", daemon=True).start()
        return future

    def run(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Run the workflow and return its output object.  The steps run
        under the run's root (:func:`~repro.cwl.outputs.run_in_root`); given
        an ``outdir``, the output files are staged there.

        Under ``on_error="stop"`` the first failed step is re-raised once
        every submitted task has ended.  Under ``on_error="continue"`` a failed
        step does not abort the run: outputs that (transitively) depend on it
        are ``None``, and the failures are available in :attr:`failures`.
        """
        return run_in_root(self.runtime_context, functools.partial(self._run, job_order))

    def _run(self, job_order: Dict[str, Any], context: RuntimeContext) -> Dict[str, Any]:
        run = functools.partial(run_job, self.job_observer or EventRecorder(),
                                run_tool=self._run_tool, evaluator_for=precompile_process)
        engine = WorkflowEngine(self.workflow, run, context.child(pipeline=False),
                                parallel=True, max_workers=context.max_inflight or sys.maxsize)
        engine._graph = self.graph
        try:
            return engine.run(job_order)
        finally:
            self.failures, self.node_states = engine.failures, engine.node_states

    def _run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                  context: RuntimeContext,
                  on_retry: Optional[RetryCallback] = None) -> Continuation[JobResult]:
        """The bridge's ``run_tool``: :func:`run_app` of the tool's
        :class:`CWLApp`, one per tool object (which it keeps alive)."""
        app = self._apps.get(id(tool))
        if app is None:
            app = self._apps[id(tool)] = CWLApp(
                tool, data_flow_kernel=self.data_flow_kernel,
                runtime_context=self.runtime_context)
        return run_app(app, job_order, context, on_retry)
