"""Execute complete CWL Workflows through Parsl (the paper's stated future work).

The paper's ``parsl-cwl`` prototype only runs single CommandLineTools; §VIII
lists "support in Parsl to run complete CWL workflows" as future work.  This
module implements that extension so the evaluation workflow (Listing 3) can be
run either through the hand-written Parsl program of Listing 4 *or* directly
from its CWL Workflow definition.

The bridge interprets no workflow wiring itself.  :meth:`CWLWorkflowBridge.submit`
runs the shared :class:`~repro.cwl.workflow.WorkflowEngine` — the one
implementation of sources, ``linkMerge``, defaults, ``valueFrom``, ``when``,
ingress/egress, scatter planning and output collection under all four engines
— inline on the calling thread (``parallel=False``), with a process runner
that calls the step's :class:`~repro.core.cwl_app.CWLApp` and returns
``future.cwl_outputs``.  The value store therefore holds ``DataFuture`` s, the
whole graph is submitted without waiting, and Parsl's dataflow kernel
interleaves the steps as it would for a native Parsl program.  What stays here
is Parsl's own: the ``CWLApp`` calls, job events, the ``max_inflight`` window,
journal terminal states and ``on_error="continue"`` once futures drain.

Each step or shard node runs in the directory the shared engine gives it,
``<root>/<node path>`` under the run's root, where its files stay and its
futures name them; :meth:`CWLWorkflowBridge.run` stages the outputs into
the context's ``outdir`` when it names one, as every engine does.  Two
things have no value before their step runs and are refused at submission
time with :class:`~repro.cwl.errors.UnsupportedRequirement`: scattering over
a value that is still a future (the width is unknown), and a step output with an
``outputEval``, whose value is not a file future.  A step output whose
evaluated glob has a wildcard names no file yet, and is refused with a
:class:`~repro.cwl.errors.WorkflowException`.  ``when`` / ``valueFrom`` and
the steps' file names see an upstream future as the File it will be
(:func:`~repro.core.cwl_app.to_cwl_value`: only the fields its path gives).
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Dict, List, Optional, Union

from repro.core.cwl_app import CWLApp, report_finished, to_cwl_value
from repro.cwl.errors import UnsupportedRequirement, WorkflowException
from repro.cwl.graph import GraphNode, WorkflowGraph, build_graph
from repro.cwl.loader import load_document
from repro.cwl.outputs import run_in_root, stage_outputs
from repro.cwl.runtime import RuntimeContext
from repro.cwl.scatter import ScatterPlan
from repro.cwl.scheduler import Expansion
from repro.cwl.schema import CommandLineTool, Process, Workflow, WorkflowStep
from repro.cwl.types import is_file_value
from repro.cwl.validate import ensure_valid
from repro.cwl.workflow import WorkflowEngine
from repro.parsl.data_provider.files import File
from repro.parsl.dataflow.dflow import DataFlowKernel
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.utils.continuation import Continuation


class _SubmissionEngine(WorkflowEngine):
    """The shared engine run at submission time: step outputs are futures."""

    def __init__(self, bridge: "CWLWorkflowBridge", context: RuntimeContext) -> None:
        # Submission is serial and fails fast; the run's journal, failure
        # policy and in-flight window apply to the futures, i.e. to the bridge.
        # The run directory stays, and with it the run-scoped job cache.
        super().__init__(bridge.workflow, self._submit, context.child(
            _journal=None, on_error="stop", pipeline=False))
        self._graph = bridge.graph
        self._bridge = bridge
        self._node: Optional[GraphNode] = None

    def _execute_node(self, node: GraphNode) -> Continuation[Optional[Expansion]]:
        self._node = node  # names the job a step or shard node submits
        return (yield from super()._execute_node(node))

    def _submit(self, process: Process, job: Dict[str, Any],
                context: RuntimeContext) -> Dict[str, DataFuture]:
        node = self._node
        app = self._bridge._app_for(process, node.step)
        evaluated = [param.id for param in app.tool.outputs
                     if param.id in node.step.out and param.output_binding is not None
                     and param.output_binding.output_eval is not None]
        if evaluated:
            raise UnsupportedRequirement(
                f"step {node.step.id!r}: output(s) {evaluated} have an outputEval, whose value "
                "exists only once the step has run; the workflow bridge passes output files "
                "between steps as futures (run the tool on engine='parsl', or the workflow on "
                "a runner engine)")
        outputs = self._bridge._observed_call(
            app, {**job, "_node": context}, node.id).cwl_outputs
        unknown = [out_id for out_id in node.step.out if out_id not in outputs]
        if unknown:
            raise WorkflowException(
                f"step {node.step.id!r}: output(s) {unknown} cannot be predicted at submission "
                f"time (predictable outputs: {sorted(outputs)}); the workflow bridge requires "
                "glob patterns that evaluate to file names without wildcards")
        return outputs

    def _expression_inputs(self, step_inputs: Dict[str, Any]) -> Dict[str, Any]:
        """A future is shown as the File it will be (:func:`to_cwl_value`)."""
        return to_cwl_value(step_inputs)

    def _plan_scatter(self, step: WorkflowStep, process: Process,
                      step_inputs: Dict[str, Any]) -> ScatterPlan:
        for key in step.scatter:
            if isinstance(step_inputs.get(key), (AppFuture, DataFuture)):
                raise UnsupportedRequirement(
                    f"step {step.id!r} scatters over {key!r} whose value is a future; scatter "
                    "widths must be known at submission time in the Parsl workflow bridge")
        return super()._plan_scatter(step, process, step_inputs)


def _staged_files(values: Dict[str, Any], destination: str) -> Dict[str, Any]:
    """The bridge's output values staged into ``destination``
    (:func:`~repro.cwl.outputs.stage_outputs`), each File as its copy there."""
    def as_parsl(value: Any) -> Any:
        if is_file_value(value):
            return File(value["path"])
        if isinstance(value, list):
            return [as_parsl(item) for item in value]
        if isinstance(value, dict):
            return {key: as_parsl(item) for key, item in value.items()}
        return value

    return as_parsl(stage_outputs(to_cwl_value(values), destination))


class CWLWorkflowBridge:
    """Convert a CWL Workflow into a Parsl dataflow and run it."""

    def __init__(self, workflow: Union[str, os.PathLike, Workflow],
                 data_flow_kernel: Optional[DataFlowKernel] = None,
                 job_observer: Optional[Any] = None,
                 runtime_context: Optional[RuntimeContext] = None) -> None:
        #: The run options (see :class:`~repro.cwl.runtime.RuntimeContext`).
        #: The bridge itself reads ``on_error`` (``"stop"`` re-raises the
        #: first failed step from :meth:`run`; ``"continue"`` resolves
        #: unaffected outputs and records the failed steps in
        #: :attr:`failures`), ``journal`` (per-step terminal states, recorded
        #: when futures drain) and ``max_inflight``; every step's
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
        #: The shared dataflow IR, compiled once here; every :meth:`submit` runs it.
        self.graph: WorkflowGraph = build_graph(self.workflow)
        self.data_flow_kernel = data_flow_kernel
        #: Optional job observer (duck-typed, see
        #: :class:`repro.api.events.EventRecorder`): told when a step is
        #: submitted and, once :meth:`run` resolved all outputs, how it ended.
        self.job_observer = job_observer
        #: Failed step name → exception, from the last :meth:`run`.
        self.failures: Dict[str, BaseException] = {}
        self._pending_observations: List[tuple] = []
        self._apps: Dict[int, CWLApp] = {}
        #: Submitted futures not finished yet, counted out by a done-callback,
        #: and the condition the ``max_inflight`` window waits on.
        self._unfinished = 0
        self._one_finished = threading.Condition()

    # -------------------------------------------------------------- submission

    def submit(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Submit every graph node, from an empty value store and (unless
        ``max_inflight`` is set) waiting for no task; outputs are futures/values.
        Outside a run, the nodes run under a root made here and left in
        place, with the files the futures name."""
        context = self.runtime_context
        if context.job_dir is None:
            context = context.run_in(context.make_job_dir("run"))
        return _SubmissionEngine(self, context).run(job_order)

    def run(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Submit the workflow and block until all outputs are concrete values.
        The steps run under the run's root
        (:func:`~repro.cwl.outputs.run_in_root`); given an ``outdir``, the
        output files are staged there and returned as the staged Files.

        Under ``on_error="stop"`` the first failed step is re-raised once
        every submitted future has drained — also when no workflow output
        depends on it.  Under ``on_error="continue"`` a failed step does not
        abort the run: outputs that (transitively) depend on it resolve to
        ``None`` — Parsl's dependency propagation fails the dependent futures
        for us — and the failures are available in :attr:`failures`
        afterwards.
        """
        return run_in_root(self.runtime_context, functools.partial(self._run, job_order),
                           _staged_files)

    def _run(self, job_order: Dict[str, Any], context: RuntimeContext) -> Dict[str, Any]:
        self.failures = {}
        stop = self.runtime_context.on_error == "stop"
        resolved: Dict[str, Any] = {}
        interrupted = False
        try:
            for key, value in _SubmissionEngine(self, context).run(job_order).items():
                try:
                    resolved[key] = self._wait(value)
                except Exception:
                    if stop:
                        raise
                    resolved[key] = None
        except KeyboardInterrupt:
            interrupted = True
            raise
        finally:
            # An interrupted run reports the steps that finished and waits
            # for none that are still running: reaping those is teardown's.
            self._drain_observations(wait=not interrupted)
        if stop and self.failures:
            raise next(iter(self.failures.values()))
        return resolved

    # ----------------------------------------------------------------- plumbing

    def _app_for(self, process: Process, step: WorkflowStep) -> CWLApp:
        """The :class:`CWLApp` of a resolved step process (one per process object)."""
        app = self._apps.get(id(process))
        if app is None:
            if not isinstance(process, CommandLineTool):
                raise WorkflowException(f"step {step.id!r} does not resolve to a CommandLineTool")
            # The app keeps ``process`` alive, so its id stays unique.
            app = self._apps[id(process)] = CWLApp(
                process, data_flow_kernel=self.data_flow_kernel,
                runtime_context=self.runtime_context)
        return app

    def _observed_call(self, app: CWLApp, kwargs: Dict[str, Any], name: str) -> AppFuture:
        """Invoke ``app``, reporting the job start to :attr:`job_observer`.

        The end event is recorded by :meth:`_drain_observations`, not a
        done-callback: CPython fires those *after* waking ``result()`` waiters,
        which would let :meth:`run` return before its events landed.
        """
        observer = self.job_observer
        token = observer.job_started(name) if observer is not None else None
        try:
            future = app(**kwargs)
        except Exception as exc:
            report_finished(None, observer, token, exc)
            raise
        self._pending_observations.append((future, token, name))
        self._throttle_inflight(future)
        return future

    def _throttle_inflight(self, future: AppFuture) -> None:
        """Backpressure submission against ``max_inflight``.

        With a 10k node graph, eagerly materialising every app call would hold
        every staged input handle live at once, so this blocks while
        ``max_inflight`` submitted jobs are unfinished.  Every unfinished job
        was submitted before the one waiting, so it is a topological ancestor
        or peer of everything after it, and waiting cannot deadlock the
        dataflow.  ``future`` is counted in here and out by its done-callback,
        so a submission costs the same however many came before it.  ``None``
        keeps Parsl's eager submission.
        """
        if not self.runtime_context.max_inflight:
            return
        max_inflight = max(1, int(self.runtime_context.max_inflight))
        with self._one_finished:
            self._unfinished += 1
        future.add_done_callback(self._count_finished)
        with self._one_finished:
            self._one_finished.wait_for(lambda: self._unfinished < max_inflight)

    def _count_finished(self, _future: AppFuture) -> None:
        with self._one_finished:
            self._unfinished -= 1
            self._one_finished.notify()

    def _drain_observations(self, wait: bool = True) -> None:
        """Resolve every submitted future (with ``wait=False``, every finished
        one): failures, retries, end events.

        Futures are tracked even without an observer so ``on_error="continue"``
        can report which steps failed.  Each step is reported through
        :func:`~repro.core.cwl_app.report_finished`, the routine the
        ``parsl`` engine's tool run uses too: the retries its execution side
        made become events, so each job's events read start → retry* → end
        like the runner engines'.  The step's terminal node state is journalled
        here, after its job's records.
        """
        journal = self.runtime_context.journal
        pending, self._pending_observations = self._pending_observations, []
        for future, token, name in pending:
            if not (wait or future.done()):
                continue
            exception = future.exception()
            if exception is not None:
                self.failures.setdefault(name, exception)
            report_finished(future, self.job_observer, token, exception)
            if journal is not None:
                journal.node_state(name, "failed" if exception else "done")

    @staticmethod
    def _wait(value: Any) -> Any:
        if isinstance(value, (AppFuture, DataFuture)):
            return value.result()
        if isinstance(value, list):
            return [CWLWorkflowBridge._wait(item) for item in value]
        return value
