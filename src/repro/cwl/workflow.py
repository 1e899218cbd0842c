"""The workflow execution engine.

:class:`WorkflowEngine` executes a loaded :class:`~repro.cwl.schema.Workflow`
against a job order.  Execution is dataflow-driven — a step runs as soon as
all of its sources are available (CWL semantics, and the property the paper
leans on when comparing with Parsl's implicit DAG) — and since PR 3 the
dataflow is *explicit*: the workflow is compiled once into a
:class:`~repro.cwl.graph.WorkflowGraph` (one node per step, nested
subworkflows flattened into the parent graph, precomputed edges/indegrees/
critical-path priorities) and executed by the event-driven
:class:`~repro.cwl.scheduler.GraphScheduler`.  Completion events wake exactly
the steps they unblock; there is no ready-poll loop.  Scatter steps expand at
runtime into per-shard nodes plus a gather node that all share the scheduler's
single bounded worker pool, so scatter inside parallel steps (or inside
subworkflows) never multiplies threads: with ``parallel=True`` the total
number of live worker threads never exceeds ``max_workers``.

The engine is the one interpreter of workflow wiring for all four engines and
is runner-agnostic: the actual execution of a step's process is delegated to a
``process_runner`` callable, which receives the resolved process, the step's
job order and the node's runtime context (whose ``job_dir`` is the node's
directory, ``<root>/<node path>``) and returns the output object, or a
continuation (:mod:`repro.utils.continuation`) whose value it is.  Step and
shard nodes ``yield from`` it, so the runner decides where a node blocks: the
cwltool-like and Toil-like runners yield only when a job misses the cache and
must spawn or be issued, so a hit finishes on the dispatching thread.  A plain
callable is all blocking segment.  The Parsl bridge
(:mod:`repro.core.workflow_bridge`) is this engine too, with a runner that
submits the step's ``CWLApp``, yields its ``AppFuture`` (the scheduler parks
the node on it) and, resumed, returns the step's outputs as values.  The engine
handles:

* gathering step inputs from workflow inputs and upstream step outputs
  (including ``MultipleInputFeatureRequirement`` merging and defaults),
* ``valueFrom`` on step inputs (``StepInputExpressionRequirement``),
* conditional execution via ``when``,
* ``scatter`` with all three scatter methods,
* subworkflows (flattened into the parent graph; scattered subworkflows
  expand per-shard subgraphs),
* optional parallel execution on one shared bounded worker pool.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.cwl.errors import ValidationException, WorkflowException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.graph import (
    EGRESS,
    GATHER,
    INGRESS,
    SCATTER,
    SHARD,
    STEP,
    GraphBuilder,
    GraphNode,
    WorkflowGraph,
    build_graph,
    merge_link_values,
    resolve_run_reference,
    seed_workflow_inputs,
)
from repro.cwl.loader import load_document_cached
from repro.cwl.outputs import run_in_root
from repro.cwl.runtime import RuntimeContext
from repro.cwl.scatter import ScatterPlan, build_scatter_jobs, nest_outputs
from repro.cwl.scheduler import Expansion, GraphScheduler, PipelineScheduler
from repro.cwl.schema import ExpressionTool, Process, Workflow, WorkflowStep
from repro.cwl.types import coerce_file_inputs
from repro.utils.continuation import Continuation, as_continuation, finish
from repro.utils.logging_config import get_logger

logger = get_logger("cwl.workflow")

#: Signature of the callable that actually runs one process invocation: a
#: plain callable returning the output object, or a function making a
#: continuation that returns it.
ProcessRunner = Callable[[Process, Dict[str, Any], RuntimeContext], Any]


@dataclass
class _StagedStep:
    """What :meth:`WorkflowEngine._stage_step` prepares for one step node."""

    process: Optional[Process] = None
    inputs: Optional[Dict[str, Any]] = None
    skipped: bool = False


class _PipelinedNodeExecutor:
    """Three-stage view of the engine's node executor for the pipelined core.

    Heavy step/shard nodes split into stage (resolve process, gather inputs,
    evaluate ``when``) / exec (the runner's process invocation — retries,
    hooks, cache and journal all live inside it, untouched) / collect (store
    outputs, declared-output check), so the scheduler can overlap the steps
    of different jobs.  Plumbing nodes (scatter/gather/ingress/egress),
    ExpressionTool steps and skipped-scope nodes are *tiny*: they run inline
    on the event loop through the exact same ``_execute_node`` dispatch the
    thread-pool core uses, in coalesced batches.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "WorkflowEngine") -> None:
        self._engine = engine

    def is_tiny(self, node: GraphNode) -> bool:
        if node.kind in (SCATTER, GATHER, INGRESS, EGRESS):
            return True
        engine = self._engine
        if engine._is_skipped(node.scope):
            return True
        if node.kind == SHARD:
            return isinstance(node.payload[0], ExpressionTool)
        if node.kind == STEP:
            return isinstance(engine._resolve_process(node.step, node.workflow),
                              ExpressionTool)
        return False

    def stage(self, node: GraphNode) -> Optional[_StagedStep]:
        if node.kind == STEP and not self._engine._is_skipped(node.scope):
            return self._engine._stage_step(node)
        return None

    def execute(self, node: GraphNode, staged: Optional[_StagedStep]) -> Any:
        engine = self._engine
        if staged is not None:  # heavy STEP
            if staged.skipped:
                return None
            return finish(engine.process_runner(staged.process, staged.inputs,
                                                engine._node_context(node)))
        if node.kind == SHARD and not engine._is_skipped(node.scope):
            process, job = node.payload
            return finish(engine.process_runner(process, job, engine._node_context(node)))
        # Tiny kinds (and skipped scopes) take the thread-pool core's exact
        # dispatch path, so the two cores cannot diverge on plumbing.
        return finish(engine._execute_node(node))

    def collect(self, node: GraphNode, staged: Optional[_StagedStep],
                result: Any) -> Optional[Expansion]:
        engine = self._engine
        if staged is not None:
            return engine._collect_step(node, staged, result)
        if node.kind == SHARD and not engine._is_skipped(node.scope):
            for out_id in node.step.out:
                engine._store(f"{node.id}/{out_id}", result.get(out_id))
            return None
        return result  # _execute_node already stored; pass any Expansion on


class WorkflowEngine:
    """Graph-backed dataflow scheduler for one workflow instance."""

    def __init__(
        self,
        workflow: Workflow,
        process_runner: ProcessRunner,
        runtime_context: Optional[RuntimeContext] = None,
        parallel: bool = False,
        max_workers: int = 8,
        evaluator_for: Callable[[Process], Any] = precompile_process,
    ) -> None:
        self.workflow = workflow
        self.process_runner = as_continuation(process_runner)
        self.runtime_context = runtime_context or RuntimeContext()
        self.parallel = parallel
        self.max_workers = max_workers
        #: The runner's choice of expression evaluator for a process
        #: (:meth:`~repro.cwl.runners.base.BaseRunner.evaluator_for`): a step's
        #: ``when`` / ``valueFrom`` use its owning workflow's evaluator, whose
        #: ``expressionLib`` they therefore see.
        self.evaluator_for = evaluator_for
        #: Per-stage wall time from the pipelined core (None otherwise).
        self.stage_timings: Optional[Dict[str, Any]] = None
        self._values: Dict[str, Any] = {}
        self._values_lock = threading.Lock()
        #: Lazily resolved ``run:`` processes, pinned per engine instance so a
        #: single workflow run sees one snapshot of each tool even if the file
        #: changes mid-run (see :meth:`_resolve_process`).
        self._resolved_processes: Dict[int, Process] = {}
        #: The workflow's dataflow IR, compiled once per engine instance.
        self._graph: Optional[WorkflowGraph] = None
        #: Scopes whose subgraph was skipped by a false ``when`` guard.
        self._skipped_scopes: List[str] = []
        #: Egress nodes created by scatter expansion: missing declared outputs
        #: gather as ``None`` (matching the historical per-shard ``.get``)
        #: instead of raising like a plain subworkflow step does.
        self._lenient_egress: Set[str] = set()
        #: Scheduler node states after :meth:`run` (``pending``/``running``/
        #: ``done``/``failed``/``skipped``).
        self.node_states: Dict[str, str] = {}
        #: node id -> exception, for nodes that failed under
        #: ``on_error="continue"``.
        self.failures: Dict[str, BaseException] = {}

    # ------------------------------------------------------------------ public

    @property
    def graph(self) -> WorkflowGraph:
        """The workflow's :class:`WorkflowGraph` IR (built on first access)."""
        if self._graph is None:
            self._graph = build_graph(self.workflow, resolve=self._resolve_process)
        return self._graph

    def run(self, job_order: Dict[str, Any]) -> Dict[str, Any]:
        """Execute the workflow and return its output object.

        With ``runtime_context.on_error == "continue"`` a failed step no
        longer aborts the run: its transitive successors are skipped
        (cwltool-style permanentFail propagation), independent branches
        finish, and the returned output object is *partial* — outputs whose
        source failed or was skipped are ``None``.  The per-node outcome is
        left on :attr:`node_states` / :attr:`failures`.  Every node's job runs
        under the run's root (:func:`~repro.cwl.outputs.run_in_root`).
        """
        return run_in_root(self.runtime_context, functools.partial(self._run, job_order))

    def _run(self, job_order: Dict[str, Any], context: RuntimeContext) -> Dict[str, Any]:
        job_order = {k: coerce_file_inputs(v) for k, v in job_order.items()}
        self._skipped_scopes = []
        self._lenient_egress = set()
        self._seed_inputs(job_order)
        self._run_context = context
        if context.pipeline:
            scheduler: GraphScheduler = PipelineScheduler(
                self.graph, executor=_PipelinedNodeExecutor(self),
                max_inflight=context.max_inflight or 64,
                max_workers=self.max_workers,
                on_error=context.on_error, journal=context.journal)
        else:
            scheduler = GraphScheduler(self.graph, self._execute_node,
                                       parallel=self.parallel,
                                       max_workers=self.max_workers,
                                       on_error=context.on_error,
                                       journal=context.journal)
        try:
            scheduler.run()
        finally:
            self.node_states = dict(scheduler.states)
            self.failures = dict(scheduler.failures)
            self.stage_timings = getattr(scheduler, "stage_timings", None)
        return self._collect_outputs(self.workflow, scope="",
                                     lenient=bool(self.failures))

    # --------------------------------------------------------------- data store

    def _seed_inputs(self, job_order: Dict[str, Any]) -> None:
        values = seed_workflow_inputs(self.workflow, job_order)
        with self._values_lock:
            self._values.update(values)

    def _store(self, key: str, value: Any) -> None:
        with self._values_lock:
            self._values[key] = value

    def _get(self, key: str) -> Any:
        with self._values_lock:
            return self._values[key]

    def _get_or_none(self, key: str) -> Any:
        with self._values_lock:
            return self._values.get(key)

    def _available(self, key: str) -> bool:
        with self._values_lock:
            return key in self._values

    # ------------------------------------------------------------ node executor

    def _node_context(self, node: GraphNode) -> RuntimeContext:
        """The context a step or shard node's process runs under: its job
        runs in the node's directory, ``<root>/<node path>``."""
        return self._run_context.node_context(node.id)

    def _is_skipped(self, scope: str) -> bool:
        return any(scope.startswith(skipped) for skipped in self._skipped_scopes)

    def _execute_node(self, node: GraphNode) -> Continuation[Optional[Expansion]]:
        """The node's continuation (its value: an optional :class:`Expansion`).

        Only step and shard nodes can yield, where their process runner does;
        every other kind, and any node of a skipped scope, returns at once.
        """
        if node.kind == EGRESS:
            return self._execute_egress(node)
        if self._is_skipped(node.scope):
            return None
        if node.kind == STEP:
            return (yield from self._execute_step_node(node))
        if node.kind == SCATTER:
            return self._execute_scatter_node(node)
        if node.kind == SHARD:
            return (yield from self._execute_shard_node(node))
        if node.kind == GATHER:
            return self._execute_gather_node(node)
        if node.kind == INGRESS:
            return self._execute_ingress(node)
        raise WorkflowException(f"unknown graph node kind {node.kind!r}")

    # ------------------------------------------------------------- plain steps

    def _execute_step_node(self, node: GraphNode) -> Continuation[None]:
        staged = self._stage_step(node)
        outputs = None if staged.skipped else (yield from self.process_runner(
            staged.process, staged.inputs, self._node_context(node)))
        self._collect_step(node, staged, outputs)

    def _stage_step(self, node: GraphNode) -> _StagedStep:
        """Stage one step: resolve the process, gather inputs, evaluate ``when``."""
        step = node.step
        logger.debug("executing step %s", node.id)
        process = self._resolve_process(step, node.workflow)
        step_inputs = self._gather_step_inputs(node)
        staged = _StagedStep(process=process, inputs=step_inputs)
        if step.when is not None and not self._evaluate_when(node, step_inputs):
            staged.skipped = True
        return staged

    def _collect_step(self, node: GraphNode, staged: _StagedStep,
                      outputs: Optional[Dict[str, Any]]) -> None:
        """Store a staged step's outputs (``None`` per output when skipped)."""
        step = node.step
        if staged.skipped:
            for out_id in step.out:
                self._store(f"{node.scope}{step.id}/{out_id}", None)
            return
        for out_id in step.out:
            if out_id not in outputs:
                raise WorkflowException(
                    f"step {step.id!r} did not produce declared output {out_id!r} "
                    f"(produced {sorted(outputs)})"
                )
            self._store(f"{node.scope}{step.id}/{out_id}", outputs[out_id])

    def _evaluate_when(self, node: GraphNode, step_inputs: Dict[str, Any]) -> bool:
        return bool(self.evaluator_for(node.workflow).evaluate(
            node.step.when, {"inputs": step_inputs, "self": None, "runtime": {}}))

    # ----------------------------------------------------------------- scatter

    def _execute_scatter_node(self, node: GraphNode) -> Optional[Expansion]:
        step = node.step
        process = self._resolve_process(step, node.workflow)
        step_inputs = self._gather_step_inputs(node)

        if step.when is not None and not self._evaluate_when(node, step_inputs):
            for out_id in step.out:
                self._store(f"{node.scope}{step.id}/{out_id}", None)
            return None

        plan = build_scatter_jobs(step_inputs, step.scatter, step.scatter_method)
        return self._expand_scatter(node, process, plan)

    def _expand_scatter(self, node: GraphNode, process: Process, plan: ScatterPlan) -> Expansion:
        """Turn a scattered step into shard nodes plus a gather node.

        Tool shards become ``shard`` nodes carrying their job order; workflow
        shards become flattened per-shard subgraphs terminated by an egress
        node.  Every shard joins the scheduler's single bounded pool — there
        is no per-step scatter pool — and downstream consumers are retargeted
        onto the gather node, which re-assembles the array outputs.
        """
        builder = GraphBuilder(resolve=self._resolve_process)
        terminals: List[str] = []
        for index, job in enumerate(plan.jobs):
            shard_id = f"{node.id}[{index}]"
            if isinstance(process, Workflow):
                shard_scope = f"{shard_id}/"
                seeded = seed_workflow_inputs(
                    process, {k: coerce_file_inputs(v) for k, v in job.items()})
                for key, value in seeded.items():
                    self._store(shard_scope + key, value)
                egress_id = builder.add_subworkflow_instance(
                    node.step, process, shard_scope, entry=None)
                self._lenient_egress.add(egress_id)
                terminals.append(egress_id)
            else:
                builder.add_node(
                    GraphNode(id=shard_id, kind=SHARD, step=node.step,
                              workflow=node.workflow, scope=node.scope,
                              payload=(process, job)),
                    preds=[])
                terminals.append(shard_id)
        gather_id = f"{node.id}@gather"
        builder.add_node(
            GraphNode(id=gather_id, kind=GATHER, step=node.step, workflow=node.workflow,
                      scope=node.scope, payload=plan),
            preds=terminals)
        return Expansion(nodes=list(builder.nodes.values()), preds=builder.preds,
                         retarget=gather_id)

    def _execute_shard_node(self, node: GraphNode) -> Continuation[None]:
        process, job = node.payload
        outputs = yield from self.process_runner(process, job, self._node_context(node))
        for out_id in node.step.out:
            self._store(f"{node.id}/{out_id}", outputs.get(out_id))

    def _execute_gather_node(self, node: GraphNode) -> None:
        step = node.step
        plan = node.payload
        scatter_id = f"{node.scope}{step.id}"  # its shards are scatter_id[i]
        for out_id in step.out:
            flat = [self._get_or_none(f"{scatter_id}[{index}]/{out_id}")
                    for index in range(len(plan.jobs))]
            if step.scatter_method == "nested_crossproduct":
                value = nest_outputs(flat, plan.shape)
            else:
                value = flat
            self._store(f"{scatter_id}/{out_id}", value)

    # ------------------------------------------------------------ subworkflows

    def _execute_ingress(self, node: GraphNode) -> None:
        """Enter a flattened subworkflow: evaluate ``when``, seed child inputs."""
        step = node.step
        logger.debug("entering subworkflow %s", node.id)
        step_inputs = self._gather_step_inputs(node)

        if step.when is not None and not self._evaluate_when(node, step_inputs):
            self._skipped_scopes.append(node.child_scope)
            return

        seeded = seed_workflow_inputs(
            node.child, {k: coerce_file_inputs(v) for k, v in step_inputs.items()})
        for key, value in seeded.items():
            self._store(node.child_scope + key, value)

    def _execute_egress(self, node: GraphNode) -> None:
        """Leave a subworkflow instance: map child outputs into the parent scope."""
        step = node.step
        if self._is_skipped(node.child_scope):
            for out_id in step.out:
                self._store(node.child_scope + out_id, None)
            return

        child_outputs = self._collect_outputs(node.child, node.child_scope)
        strict = node.id not in self._lenient_egress
        for out_id in step.out:
            if out_id not in child_outputs:
                if strict:
                    raise WorkflowException(
                        f"step {step.id!r} did not produce declared output {out_id!r} "
                        f"(produced {sorted(child_outputs)})"
                    )
                child_outputs[out_id] = None
        for out_id, value in child_outputs.items():
            self._store(node.child_scope + out_id, value)

    # ---------------------------------------------------------------- resolve

    def _resolve_process(self, step: WorkflowStep,
                         workflow: Optional[Workflow] = None) -> Process:
        if step.embedded_process is not None:
            return step.embedded_process
        if isinstance(step.run, str):
            resolved = self._resolved_processes.get(id(step))
            if resolved is not None:
                return resolved
            source_path = (workflow or self.workflow).source_path
            # Pinned on this engine instance (snapshot per run), NOT on the
            # step object: the enclosing workflow may live in the loader's
            # document cache, whose dependency stamps were computed at parse
            # time — pinning there would outlive the child's own mtime check.
            process = load_document_cached(resolve_run_reference(step.run, source_path))
            self._resolved_processes[id(step)] = process
            return process
        if isinstance(step.run, Process):
            return step.run
        raise WorkflowException(f"step {step.id!r} has an unresolvable run reference {step.run!r}")

    # ------------------------------------------------------------- step inputs

    def _gather_step_inputs(self, node: GraphNode) -> Dict[str, Any]:
        step, scope = node.step, node.scope
        gathered: Dict[str, Any] = {}
        for step_input in step.in_:
            if step_input.source:
                value = merge_link_values(
                    [self._get(scope + source) for source in step_input.source],
                    step_input.link_merge)
            else:
                value = None
            if value is None and step_input.has_default:
                value = step_input.default
            gathered[step_input.id] = value

        # valueFrom runs after all sources/defaults are resolved, with `self` bound
        # to the pre-valueFrom value of that input (CWL v1.2 semantics).
        needs_expression = any(si.value_from is not None for si in step.in_)
        if needs_expression:
            evaluator = self.evaluator_for(node.workflow)
            base_context = dict(gathered)
            for step_input in step.in_:
                if step_input.value_from is None:
                    continue
                context = {"inputs": base_context, "self": base_context.get(step_input.id),
                           "runtime": {}}
                gathered[step_input.id] = evaluator.evaluate(step_input.value_from, context)
        return gathered

    # --------------------------------------------------------- workflow outputs

    def _collect_outputs(self, workflow: Workflow, scope: str,
                         lenient: bool = False) -> Dict[str, Any]:
        """Collect a (sub)workflow's outputs from the value store.

        ``lenient=True`` (a run with failed nodes under
        ``on_error="continue"``) maps never-produced sources to ``None``
        instead of raising, yielding the partial output object.
        """
        outputs: Dict[str, Any] = {}
        for output in workflow.workflow_outputs:
            if not output.output_source:
                outputs[output.id] = None
                continue
            values = []
            for source in output.output_source:
                if not self._available(scope + source):
                    if lenient:
                        values.append(None)
                        continue
                    raise WorkflowException(
                        f"workflow output {output.id!r} source {source!r} was never produced"
                    )
                values.append(self._get(scope + source))
            outputs[output.id] = merge_link_values(values, output.link_merge)
        return outputs
