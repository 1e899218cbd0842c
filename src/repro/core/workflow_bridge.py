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
with ``parallel=True`` and one process runner, :func:`run_app`.  That runner
submits the step's :class:`~repro.core.cwl_app.CWLApp` with concrete values
and yields the ``AppFuture``.  The scheduler parks the node on it, without a
thread waiting, and resumes it on the dispatching thread once the task is
done: the runner then takes the outputs the job collected in the node's
directory, ``<root>/<node path>``, reports the job and returns the output
*values*, which is what the successors are submitted with (a task returns
its result, and the next task is submitted with that value).  An ``outputEval``, a
wildcard glob, a scatter over an upstream array and ``$(inputs.f.size)`` of an
upstream File therefore behave as on the runners.  What stays Parsl's own is
the ``CWLApp`` call: Parsl's dataflow kernel runs each task, and
``max_inflight`` caps the parked nodes.

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

from repro.core.cwl_app import CWLApp, job_order_view, report_finished
from repro.cwl.errors import WorkflowException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.graph import WorkflowGraph, build_graph
from repro.cwl.loader import load_document
from repro.cwl.outputs import collect_outputs, run_in_root
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, Process, Workflow
from repro.cwl.validate import ensure_valid
from repro.cwl.workflow import WorkflowEngine
from repro.parsl.dataflow.dflow import DataFlowKernel
from repro.utils.continuation import Continuation


def run_app(app: CWLApp, job_order: Dict[str, Any], context: RuntimeContext,
            observer: Optional[Any] = None) -> Continuation[Dict[str, Any]]:
    """One ``CWLApp`` call of an engine, as a continuation: the job runs in
    ``context``'s ``job_dir``, and its output object is the value.

    It reports the job start to ``observer``, submits the call and yields
    its ``AppFuture``.  Resumed once the future is done, it takes the outputs
    the job collected in its directory, reports how the job ended through
    :func:`~repro.core.cwl_app.report_finished` and returns the outputs.  A
    process-based executor returns only the exit code, so there the outputs
    are collected here, once, in the job's directory.
    """
    tool = app.tool
    token = observer.job_started(tool.job_name) if observer is not None else None
    future = None
    try:
        future = app(**job_order, _node=context)
        yield future
        future.result()
        outputs = future.cwl_cache_note.get("outputs")
        if outputs is None:
            job_dir = context.job_dir
            outputs = collect_outputs(
                tool, outdir=job_dir, stdout_path=future.stdout, stderr_path=future.stderr,
                job_order=job_order_view(tool, job_order),
                runtime=context.with_resources(tool).runtime_object(job_dir, job_dir),
                evaluator=precompile_process(tool))
    except Exception as exc:
        report_finished(future, observer, token, exc)
        raise
    report_finished(future, observer, token)
    return outputs


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
        #: starts, retried and how it ended.
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
        engine = WorkflowEngine(self.workflow, self._run_step, context.child(pipeline=False),
                                parallel=True, max_workers=context.max_inflight or sys.maxsize)
        engine._graph = self.graph
        try:
            return engine.run(job_order)
        finally:
            self.failures, self.node_states = engine.failures, engine.node_states

    def _run_step(self, process: Process, job_order: Dict[str, Any],
                  context: RuntimeContext) -> Continuation[Dict[str, Any]]:
        """The engine's process runner: :func:`run_app` of the step's app."""
        return (yield from run_app(self._app_for(process), job_order, context, self.job_observer))

    def _app_for(self, process: Process) -> CWLApp:
        """The :class:`CWLApp` of a resolved step process (one per process object)."""
        app = self._apps.get(id(process))
        if app is None:
            if not isinstance(process, CommandLineTool):
                raise WorkflowException(
                    f"{process.job_name!r} ({type(process).__name__}) is not a "
                    "CommandLineTool; the workflow bridge runs CommandLineTool steps")
            # The app keeps ``process`` alive, so its id stays unique.
            app = self._apps[id(process)] = CWLApp(
                process, data_flow_kernel=self.data_flow_kernel,
                runtime_context=self.runtime_context)
        return app
