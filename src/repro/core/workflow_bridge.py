"""Execute complete CWL Workflows through Parsl (the paper's stated future work).

The paper's ``parsl-cwl`` prototype only runs single CommandLineTools; §VIII
lists "support in Parsl to run complete CWL workflows" as future work.  This
module implements that extension so the evaluation workflow (Listing 3) can be
run either through the hand-written Parsl program of Listing 4 *or* directly
from its CWL Workflow definition.

Since PR 3 the bridge shares the :class:`~repro.cwl.graph.WorkflowGraph` IR
with the workflow engine: the workflow is compiled once at load time into the
same explicit dataflow graph the reference and Toil-like runners schedule
from, and :meth:`submit` simply walks it in topological order:

* every ``step`` node's CommandLineTool becomes a :class:`~repro.core.cwl_app.CWLApp`,
* dependency edges become ``DataFuture`` s, so Parsl's dataflow scheduler
  interleaves steps exactly as it would for a native Parsl program,
* ``scatter`` nodes over concrete arrays expand at submission time,
* nested (non-scattered) subworkflow steps are flattened into the parent
  graph by the IR — their ``ingress``/``egress`` nodes seed child inputs and
  map child outputs at submission time, so the bridge now runs subworkflows
  it previously rejected,
* workflow outputs are returned as ``DataFuture`` s / values keyed by output id.

Dynamic constructs whose value depends on *task results* (e.g. ``when`` guards
referencing upstream outputs, or scattering over a future) are outside what
can be decided at submission time and raise a clear error instead of silently
misbehaving.  Scattering a sub-*workflow* step likewise stays unsupported.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Union

from repro.core.cwl_app import CWLApp
from repro.cwl.errors import InputValidationError, UnsupportedRequirement, WorkflowException
from repro.cwl.expressions.compiler import CompiledEvaluator
from repro.cwl.expressions.evaluator import needs_expression_evaluation
from repro.cwl.graph import (
    EGRESS,
    INGRESS,
    SCATTER,
    STEP,
    GraphNode,
    WorkflowGraph,
    build_graph,
    merge_link_values,
    seed_workflow_inputs,
)
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.cwl.scatter import build_scatter_jobs
from repro.cwl.schema import CommandLineTool, Process, Workflow, WorkflowStep
from repro.cwl.validate import ensure_valid
from repro.parsl.dataflow.dflow import DataFlowKernel
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.utils.logging_config import get_logger

logger = get_logger("core.workflow_bridge")


class CWLWorkflowBridge:
    """Convert a CWL Workflow into a Parsl dataflow and run it."""

    def __init__(self, workflow: Union[str, os.PathLike, Workflow],
                 data_flow_kernel: Optional[DataFlowKernel] = None,
                 validate: bool = True,
                 job_observer: Optional[Any] = None,
                 runtime_context: Optional[RuntimeContext] = None) -> None:
        #: The run options (see :class:`~repro.cwl.runtime.RuntimeContext`).
        #: The bridge itself reads ``on_error`` (``"stop"`` re-raises the
        #: first failed step from :meth:`run`; ``"continue"`` resolves
        #: unaffected outputs and records the failed steps in
        #: :attr:`failures`), ``journal`` (per-step terminal states are
        #: recorded when futures drain), ``max_inflight`` and
        #: ``compile_expressions``; every step's :class:`CWLApp` gets the
        #: whole context (job cache, retries, fault plan, timeout).
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
        if validate:
            ensure_valid(self.workflow)
        #: The shared dataflow IR, compiled once at load time (the same graph
        #: the WorkflowEngine schedules from).
        self.graph: WorkflowGraph = build_graph(self.workflow)
        self.data_flow_kernel = data_flow_kernel
        #: Optional job observer (duck-typed ``job_started``/``job_finished``,
        #: see :class:`repro.api.events.EventRecorder`); notified when a step
        #: is submitted and, once :meth:`run` has resolved all outputs, when
        #: each step future finished.
        self.job_observer = job_observer
        #: Failed step name → exception, from the last :meth:`run`.
        self.failures: Dict[str, BaseException] = {}
        self._pending_observations: List[tuple] = []
        self._apps: Dict[str, CWLApp] = {}

    # -------------------------------------------------------------- submission

    def submit(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Submit every graph node and return workflow outputs as futures/values."""
        # InputValidationError (a WorkflowException) classifies as "invalid",
        # matching the runner engines' job-order validation failures — the
        # conformance exit-class contract for missing workflow inputs.
        values: Dict[str, Any] = seed_workflow_inputs(self.workflow, job_order,
                                                      error=InputValidationError)
        skipped_scopes: List[str] = []

        def is_skipped(scope: str) -> bool:
            return any(scope.startswith(skipped) for skipped in skipped_scopes)

        for node_id in self.graph.topological_order():
            node = self.graph.nodes[node_id]
            if node.kind == EGRESS:
                self._submit_egress(node, values, is_skipped(node.child_scope))
                continue
            if is_skipped(node.scope):
                continue
            if node.kind == STEP:
                self._submit_step(node, values)
            elif node.kind == SCATTER:
                self._submit_scatter(node, values)
            elif node.kind == INGRESS:
                self._submit_ingress(node, values, skipped_scopes)
            else:
                raise WorkflowException(
                    f"graph node {node.id!r} of kind {node.kind!r} cannot be "
                    "submitted at load time")

        outputs: Dict[str, Any] = {}
        for output in self.workflow.workflow_outputs:
            if not output.output_source:
                outputs[output.id] = None
                continue
            resolved = [values.get(source) for source in output.output_source]
            outputs[output.id] = merge_link_values(resolved, output.link_merge)
        return outputs

    def run(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Submit the workflow and block until all outputs are concrete values.

        Under ``on_error="continue"`` a failed step does not abort the run:
        outputs that (transitively) depend on it resolve to ``None`` — Parsl's
        dependency propagation fails the dependent futures for us — and the
        failures are available in :attr:`failures` afterwards.
        """
        self.failures = {}
        try:
            outputs = self.submit(job_order)
            if self.runtime_context.on_error == "continue":
                resolved: Dict[str, Any] = {}
                for key, value in outputs.items():
                    try:
                        resolved[key] = self._wait(value)
                    except Exception:
                        resolved[key] = None
                return resolved
            return {key: self._wait(value) for key, value in outputs.items()}
        finally:
            self._drain_observations()

    # ------------------------------------------------------------------- nodes

    def _submit_step(self, node: GraphNode, values: Dict[str, Any]) -> None:
        step = node.step
        app = self._app_for(node)
        gathered = self._gather_inputs(step, values, node.scope)

        if step.when is not None:
            condition = self._evaluate_static(step.when, gathered)
            if not condition:
                for out_id in step.out:
                    values[f"{node.scope}{step.id}/{out_id}"] = None
                return

        future = self._observed_call(app, gathered, node.id)
        named = getattr(future, "cwl_outputs", {})
        for out_id in step.out:
            if out_id not in named:
                raise WorkflowException(
                    f"step {step.id!r}: output {out_id!r} cannot be predicted at submission "
                    f"time (predictable outputs: {sorted(named)}); the workflow bridge requires "
                    "literal or input-derived glob patterns"
                )
            values[f"{node.scope}{step.id}/{out_id}"] = named[out_id]

    def _submit_scatter(self, node: GraphNode, values: Dict[str, Any]) -> None:
        step = node.step
        app = self._app_for(node)
        gathered = self._gather_inputs(step, values, node.scope)

        if step.when is not None:
            condition = self._evaluate_static(step.when, gathered)
            if not condition:
                for out_id in step.out:
                    values[f"{node.scope}{step.id}/{out_id}"] = None
                return

        concrete = {key: self._require_concrete(value, step.id, key)
                    for key, value in gathered.items() if key in step.scatter}
        merged = dict(gathered)
        merged.update(concrete)
        plan = build_scatter_jobs(merged, step.scatter, step.scatter_method)
        per_output: Dict[str, List[Any]] = {out_id: [] for out_id in step.out}
        for index, job in enumerate(plan.jobs):
            future = self._observed_call(app, job, f"{node.id}[{index}]")
            named = getattr(future, "cwl_outputs", {})
            for out_id in step.out:
                per_output[out_id].append(named.get(out_id, future))
        for out_id in step.out:
            values[f"{node.scope}{step.id}/{out_id}"] = per_output[out_id]

    def _submit_ingress(self, node: GraphNode, values: Dict[str, Any],
                        skipped_scopes: List[str]) -> None:
        """Enter a flattened subworkflow: evaluate ``when``, seed child inputs."""
        step = node.step
        gathered = self._gather_inputs(step, values, node.scope)
        if step.when is not None and not self._evaluate_static(step.when, gathered):
            skipped_scopes.append(node.child_scope)
            return
        seeded = seed_workflow_inputs(node.child, gathered, error=WorkflowException)
        for key, value in seeded.items():
            values[node.child_scope + key] = value

    def _submit_egress(self, node: GraphNode, values: Dict[str, Any],
                       skipped: bool) -> None:
        """Leave a subworkflow: map child workflow outputs into the parent scope."""
        step = node.step
        if skipped:
            for out_id in step.out:
                values[node.child_scope + out_id] = None
            return
        child_outputs: Dict[str, Any] = {}
        for output in node.child.workflow_outputs:
            if not output.output_source:
                child_outputs[output.id] = None
                continue
            resolved = [values.get(node.child_scope + source)
                        for source in output.output_source]
            child_outputs[output.id] = merge_link_values(resolved, output.link_merge)
        for out_id in step.out:
            if out_id not in child_outputs:
                raise WorkflowException(
                    f"step {step.id!r} did not produce declared output {out_id!r} "
                    f"(produced {sorted(child_outputs)})"
                )
        for out_id, value in child_outputs.items():
            values[node.child_scope + out_id] = value

    # ----------------------------------------------------------------- plumbing

    def _observed_call(self, app: CWLApp, kwargs: Dict[str, Any], name: str) -> AppFuture:
        """Invoke ``app``, reporting the job start to :attr:`job_observer`.

        The matching end event is recorded by :meth:`_drain_observations` —
        not a done-callback, which CPython fires *after* waking ``result()``
        waiters and would let :meth:`run` return before its events landed.
        """
        observer = self.job_observer
        token = observer.job_started(name) if observer is not None else None
        try:
            future = app(**kwargs)
        except Exception as exc:
            if observer is not None:
                observer.job_finished(token, ok=False, error=str(exc))
            raise
        self._pending_observations.append((future, token, name))
        self._throttle_inflight()
        return future

    def _throttle_inflight(self) -> None:
        """Backpressure the submission walk against ``max_inflight``.

        With a 10k node graph, eagerly materialising every app call would
        hold every staged input handle live at once, so this blocks on the
        oldest unfinished future while more than ``max_inflight`` submitted
        jobs are live.  Dependency edges are already futures, so waiting on
        the oldest (a topological ancestor or peer of everything after it)
        cannot deadlock the dataflow.  ``None`` keeps Parsl's eager submission.
        """
        if not self.runtime_context.max_inflight:
            return
        max_inflight = max(1, int(self.runtime_context.max_inflight))
        while True:
            live = [f for f, _tok, _name in self._pending_observations
                    if not f.done()]
            if len(live) < max_inflight:
                return
            live[0].exception()  # block for completion without raising

    def _drain_observations(self) -> None:
        """Resolve every submitted future: failures, retry events, end events.

        Futures are tracked even without an observer so that
        ``on_error="continue"`` can report which steps failed.  Retries are
        replayed from the future's in-process ``cwl_retry_note`` (written by
        :func:`~repro.core.cwl_app.resilient_bash_executor`), so the event
        stream per job reads start → retry* → end like the runner engines'.
        """
        observer = self.job_observer
        pending, self._pending_observations = self._pending_observations, []
        for future, token, name in pending:
            exception = future.exception()
            if exception is not None:
                self.failures.setdefault(name, exception)
            note = getattr(future, "cwl_cache_note", None) or {}
            retries = getattr(future, "cwl_retry_note", None) or []
            if self.runtime_context.journal is not None:
                self.runtime_context.journal.node_state(
                    name, "failed" if exception else "done")
            if observer is None:
                continue
            for entry in retries:
                observer.job_retry(token, entry["attempt"],
                                   error=entry["error"],
                                   delay_s=entry["delay_s"])
            observer.job_finished(token, ok=exception is None,
                                  error=str(exception) if exception else None,
                                  cache=note.get("cache"),
                                  attempt=retries[-1]["attempt"] + 1 if retries else 1)

    def _app_for(self, node: GraphNode) -> CWLApp:
        if node.id in self._apps:
            return self._apps[node.id]
        step = node.step
        process: Optional[Process] = step.embedded_process
        if process is None and isinstance(step.run, str):
            from repro.cwl.graph import default_resolver

            process = default_resolver(step, node.workflow)
        elif process is None and isinstance(step.run, Process):
            process = step.run
        if isinstance(process, Workflow):
            raise UnsupportedRequirement(
                f"step {step.id!r} scatters over a nested Workflow; the Parsl workflow "
                "bridge expands scatter at submission time over CommandLineTool steps only "
                "(use ReferenceRunner for scattered subworkflows)"
            )
        if not isinstance(process, CommandLineTool):
            raise WorkflowException(f"step {step.id!r} does not resolve to a CommandLineTool")
        app = CWLApp(process, data_flow_kernel=self.data_flow_kernel,
                     runtime_context=self.runtime_context)
        self._apps[node.id] = app
        return app

    def _gather_inputs(self, step: WorkflowStep, values: Dict[str, Any],
                       scope: str) -> Dict[str, Any]:
        gathered: Dict[str, Any] = {}
        for step_input in step.in_:
            if step_input.source:
                sourced = [values[scope + source] for source in step_input.source]
                value = merge_link_values(sourced, step_input.link_merge)
            else:
                value = None
            if value is None and step_input.has_default:
                value = step_input.default
            gathered[step_input.id] = value
        for step_input in step.in_:
            if step_input.value_from is None:
                continue
            gathered[step_input.id] = self._evaluate_static(
                step_input.value_from, gathered, self_value=gathered.get(step_input.id))
        return gathered

    def _evaluate_static(self, expression: str, inputs: Dict[str, Any],
                         self_value: Any = None) -> Any:
        """Evaluate a step-level expression at submission time.

        Plain strings pass through; expressions may only reference values that
        are concrete at submission time (workflow inputs, literals) — futures
        cannot be inspected before they run.
        """
        if not needs_expression_evaluation(expression):
            return expression
        concrete_inputs = {}
        for key, value in inputs.items():
            if isinstance(value, (AppFuture, DataFuture)):
                concrete_inputs[key] = {"basename": getattr(value, "filename", None),
                                        "path": getattr(value, "filepath", None),
                                        "class": "File"}
            else:
                concrete_inputs[key] = value
        # The bridge is a long-lived engine: submission-time expressions go
        # through the compiled pipeline (parse-once template cache) unless
        # the uncompiled leg was requested.
        if self.runtime_context.compile_expressions is not False:
            evaluator = CompiledEvaluator(js_enabled=True)
        else:
            from repro.cwl.expressions.evaluator import ExpressionEvaluator

            evaluator = ExpressionEvaluator(js_enabled=True)
        return evaluator.evaluate(expression, {"inputs": concrete_inputs, "self": self_value,
                                               "runtime": {}})

    @staticmethod
    def _require_concrete(value: Any, step_id: str, key: str) -> Any:
        if isinstance(value, (AppFuture, DataFuture)):
            raise UnsupportedRequirement(
                f"step {step_id!r} scatters over {key!r} whose value is a future; scatter widths "
                "must be known at submission time in the Parsl workflow bridge"
            )
        return value

    @staticmethod
    def _wait(value: Any) -> Any:
        if isinstance(value, DataFuture):
            return value.result()
        if isinstance(value, AppFuture):
            return value.result()
        if isinstance(value, list):
            return [CWLWorkflowBridge._wait(item) for item in value]
        return value
