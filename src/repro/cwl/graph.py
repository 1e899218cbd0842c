"""The explicit workflow dataflow IR: :class:`WorkflowGraph`.

The paper contrasts CWL runners' step orchestration with Parsl's implicit
dataflow DAG.  This module makes that DAG *explicit*: a loaded
:class:`~repro.cwl.schema.Workflow` is compiled once — at validate/load time —
into a :class:`WorkflowGraph` whose nodes carry precomputed dependency edges,
indegree counts and critical-path priorities.  Every execution path shares the
IR: the :class:`~repro.cwl.workflow.WorkflowEngine` (reference and Toil-like
runners) feeds it to the event-driven
:class:`~repro.cwl.scheduler.GraphScheduler`, the Parsl
:class:`~repro.core.workflow_bridge.CWLWorkflowBridge` runs that same engine
with a process runner that parks each step on its ``AppFuture``, and
:func:`repro.api.plan` surfaces it for introspection.

Node kinds
----------

``step``
    One plain (non-scattered) step whose process is a tool; executed by a
    process runner.
``scatter``
    A scattered step.  Static in the IR; at runtime the scheduler *expands* it
    into per-shard nodes plus a ``gather`` node once the scatter width is
    known (see ``WorkflowEngine._expand_scatter``).
``shard`` / ``gather``
    Runtime-only: one scatter shard, and the node that re-assembles shard
    outputs into the step's array outputs.  Downstream consumers are
    retargeted from the ``scatter`` node onto its ``gather`` node, so shards
    share the *same* bounded worker pool as every other node instead of a
    nested per-step pool.
``ingress`` / ``egress``
    A nested subworkflow step is *flattened* into the parent graph: the
    ingress node evaluates the step's ``when`` / ``valueFrom`` and seeds the
    child workflow's inputs, the child's steps become first-class nodes in
    the parent graph (namespaced by scope), and the egress node maps the
    child's workflow outputs back into the parent namespace.

Scopes and value keys
---------------------

Dataflow values live in one flat store keyed by ``scope + source``: the root
workflow has scope ``""`` (keys are the familiar ``step/out`` references), a
flattened subworkflow step ``sub`` has scope ``"sub/"``, and shard *j* of a
scattered subworkflow has scope ``"sub[j]/"``.  A subworkflow instance's
outputs are stored at ``child_scope + output_id``, which is exactly the key
its parent consumers (or its gather node) read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cwl.errors import InputValidationError, ValidationException, WorkflowException
from repro.cwl.loader import load_document_cached
from repro.cwl.schema import Process, Workflow, WorkflowStep

#: Node kinds (plain strings so ``describe()`` output is JSON-ready).
STEP = "step"
SCATTER = "scatter"
SHARD = "shard"
GATHER = "gather"
INGRESS = "ingress"
EGRESS = "egress"

#: Signature of the callable that resolves a step's ``run:`` reference.
StepResolver = Callable[[WorkflowStep, Workflow], Process]


def resolve_run_reference(run: str, source_path: Optional[str]) -> str:
    """Resolve a relative ``run:`` file reference against the referring document.

    Uses ``os.path.join`` + ``normpath`` so ``./tool.cwl``, ``tool.cwl`` and
    parent-relative ``../tools/tool.cwl`` references all resolve correctly
    (the previous f-string join produced paths like ``dir/./tool.cwl``).
    """
    if os.path.isabs(run):
        return os.path.normpath(run)
    base_dir = os.path.dirname(source_path) if source_path else ""
    return os.path.normpath(os.path.join(base_dir, run)) if base_dir else os.path.normpath(run)


def default_resolver(step: WorkflowStep, workflow: Workflow) -> Process:
    """Resolve a step's process: embedded, or loaded from its ``run:`` path."""
    if step.embedded_process is not None:
        return step.embedded_process
    if isinstance(step.run, str):
        return load_document_cached(resolve_run_reference(step.run, workflow.source_path))
    if isinstance(step.run, Process):
        return step.run
    raise WorkflowException(
        f"step {step.id!r} has an unresolvable run reference {step.run!r}")


def seed_workflow_inputs(workflow: Workflow, job_order: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve a workflow's input values from ``job_order`` (defaults, optionals).

    Called by the engine for the root workflow, subworkflow ingress nodes and
    scattered-subworkflow shards, on every runner.  A missing required input
    raises :class:`~repro.cwl.errors.InputValidationError` (exit class
    ``invalid``), the same class job-order validation raises.
    """
    values: Dict[str, Any] = {}
    for param in workflow.inputs:
        if param.id in job_order:
            values[param.id] = job_order[param.id]
        elif param.has_default:
            values[param.id] = param.default
        elif param.type.is_optional:
            values[param.id] = None
        else:
            raise InputValidationError(
                f"workflow input {param.id!r} is required but was not provided")
    return values


def merge_link_values(values: List[Any], link_merge: str) -> Any:
    """CWL ``linkMerge`` semantics for multi-source values (the single site).

    A lone source passes through unchanged; ``merge_flattened`` flattens
    list-valued items while non-list items stay atomic;
    ``merge_nested`` (the default) keeps one item per source.  Used by the
    workflow engine for step inputs *and* workflow outputs.
    """
    if len(values) == 1:
        return values[0]
    if link_merge == "merge_flattened":
        return [item for sub in values
                for item in (sub if isinstance(sub, list) else [sub])]
    return values


def find_step_cycle(workflow: Workflow) -> List[str]:
    """Return the step ids of one dependency cycle (in order), or ``[]``.

    Step-level only — no ``run:`` resolution, no subworkflow flattening — so
    validation can name cyclic steps cheaply without touching the filesystem.
    Unknown sources are ignored here; they are reported separately.
    """
    step_ids = {step.id for step in workflow.steps}
    depends_on: Dict[str, List[str]] = {}
    for step in workflow.steps:
        deps: List[str] = []
        for step_input in step.in_:
            for source in step_input.source:
                if "/" in source:
                    producer = source.split("/", 1)[0]
                    if producer in step_ids and producer not in deps:
                        deps.append(producer)
        depends_on[step.id] = deps

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {step_id: WHITE for step_id in depends_on}

    # Iterative colouring DFS: an explicit (node, dep-iterator) stack instead
    # of recursion, so a 10k-step linear chain cannot hit the interpreter's
    # recursion limit during validation.
    for root in depends_on:
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        path = [root]
        frames = [(root, iter(depends_on[root]))]
        while frames:
            node, deps = frames[-1]
            advanced = False
            for dep in deps:
                if colour[dep] == GREY:
                    return path[path.index(dep):] + [dep]
                if colour[dep] == WHITE:
                    colour[dep] = GREY
                    path.append(dep)
                    frames.append((dep, iter(depends_on[dep])))
                    advanced = True
                    break
            if not advanced:
                frames.pop()
                path.pop()
                colour[node] = BLACK
    return []


@dataclass
class GraphNode:
    """One unit of schedulable work in a :class:`WorkflowGraph`."""

    id: str
    kind: str
    #: The workflow step this node derives from (None only for synthetic nodes).
    step: Optional[WorkflowStep]
    #: The (sub)workflow the step belongs to.
    workflow: Optional[Workflow]
    #: Namespace prefix used to resolve this node's sources in the value store.
    #: For ``egress`` nodes this is the *child* scope (it reads child values
    #: and stores outputs at ``scope + output_id``).
    scope: str = ""
    #: Critical-path priority: length of the longest dependent chain hanging
    #: off this node (higher runs first among ready nodes).
    priority: int = 1
    #: Runtime payload: ``(process, job_order)`` for shard nodes, the
    #: :class:`~repro.cwl.scatter.ScatterPlan` for gather nodes.
    payload: Any = field(default=None, repr=False, compare=False)
    #: For ingress/egress nodes: the child Workflow and its value-store scope.
    child: Optional[Workflow] = field(default=None, repr=False, compare=False)
    child_scope: str = ""


class WorkflowGraph:
    """The immutable-after-build dataflow graph of one workflow."""

    def __init__(self) -> None:
        self.nodes: Dict[str, GraphNode] = {}
        #: node id -> ordered, de-duplicated predecessor node ids.
        self.predecessors: Dict[str, List[str]] = {}
        #: node id -> successor node ids (derived from predecessors).
        self.successors: Dict[str, List[str]] = {}
        #: node id -> number of predecessors (the scheduler's starting counts).
        self.indegree: Dict[str, int] = {}
        self._order: List[str] = []

    # ------------------------------------------------------------- inspection

    def topological_order(self) -> List[str]:
        """Node ids in a stable topological order (computed at build time)."""
        return list(self._order)

    def roots(self) -> List[str]:
        return [nid for nid in self.nodes if self.indegree[nid] == 0]

    def edges(self) -> List[Tuple[str, str]]:
        return [(pred, nid) for nid, preds in self.predecessors.items() for pred in preds]

    def critical_path(self) -> List[str]:
        """One longest dependency chain, source to sink, as node ids."""
        if not self.nodes:
            return []
        start = max(self.roots() or list(self.nodes),
                    key=lambda nid: self.nodes[nid].priority)
        path = [start]
        while self.successors.get(path[-1]):
            path.append(max(self.successors[path[-1]],
                            key=lambda nid: self.nodes[nid].priority))
        return path

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary: nodes, edges, critical path (``api.plan()``)."""
        return {
            "nodes": [
                {
                    "id": node.id,
                    "kind": node.kind,
                    "scope": node.scope,
                    "step": node.step.id if node.step is not None else None,
                    "priority": node.priority,
                    "scatter": node.kind == SCATTER,
                    "deps": list(self.predecessors[node.id]),
                }
                for node in (self.nodes[nid] for nid in self._order)
            ],
            "edges": [list(edge) for edge in self.edges()],
            "critical_path": self.critical_path(),
            "critical_path_length": max((n.priority for n in self.nodes.values()), default=0),
            "node_count": len(self.nodes),
            "edge_count": sum(len(p) for p in self.predecessors.values()),
        }

    # ------------------------------------------------------------ finalisation

    def _finalise(self) -> None:
        """Derive successors, a stable topological order and priorities."""
        self.successors = {nid: [] for nid in self.nodes}
        self.indegree = {nid: len(preds) for nid, preds in self.predecessors.items()}
        for nid, preds in self.predecessors.items():
            for pred in preds:
                self.successors[pred].append(nid)

        # Kahn's algorithm over insertion order (stable for equal readiness).
        remaining = dict(self.indegree)
        ready = [nid for nid in self.nodes if remaining[nid] == 0]
        order: List[str] = []
        index = 0
        while index < len(ready):
            nid = ready[index]
            index += 1
            order.append(nid)
            for succ in self.successors[nid]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid in self.nodes if nid not in set(order))
            raise ValidationException(
                "workflow graph contains a dependency cycle",
                issues=[f"cyclic nodes: {', '.join(stuck)}"])
        self._order = order

        # Critical-path priorities: longest chain from each node to a sink.
        for nid in reversed(order):
            succs = self.successors[nid]
            self.nodes[nid].priority = 1 + max(
                (self.nodes[s].priority for s in succs), default=0)


class GraphBuilder:
    """Builds :class:`WorkflowGraph` s (and runtime scatter-expansion subgraphs)."""

    def __init__(self, resolve: Optional[StepResolver] = None) -> None:
        self.resolve = resolve or default_resolver
        self.nodes: Dict[str, GraphNode] = {}
        self.preds: Dict[str, List[str]] = {}

    # ----------------------------------------------------------------- helpers

    def add_node(self, node: GraphNode, preds: Sequence[str]) -> None:
        if node.id in self.nodes:
            raise WorkflowException(f"duplicate graph node id {node.id!r}")
        self.nodes[node.id] = node
        self.preds[node.id] = list(dict.fromkeys(preds))

    # -------------------------------------------------------------- workflows

    def add_workflow(self, workflow: Workflow, scope: str = "",
                     entry: Optional[str] = None) -> Dict[str, str]:
        """Add one node per step of ``workflow`` under namespace ``scope``.

        ``entry`` is the node id that seeds this (sub)workflow's inputs — the
        ingress node of a flattened subworkflow step.  ``None`` means inputs
        are seeded before scheduling starts (the root workflow, or a scatter
        shard whose inputs are concrete at expansion time).

        Returns the producer map: ``"step/out"`` source string -> the node id
        whose completion makes that value available.
        """
        cycle = find_step_cycle(workflow)
        if cycle:
            raise ValidationException(
                f"workflow {workflow.id or '<anonymous>'} has a dependency cycle",
                issues=["dependency cycle between steps: " + " -> ".join(cycle)])

        input_ids = {param.id for param in workflow.inputs}
        resolved: Dict[str, Process] = {}
        flattened: Set[str] = set()
        for step in workflow.steps:
            process = self.resolve(step, workflow)
            resolved[step.id] = process
            if not step.scatter and isinstance(process, Workflow):
                flattened.add(step.id)

        producer: Dict[str, str] = {}
        for step in workflow.steps:
            node_id = (f"{scope}{step.id}@out" if step.id in flattened
                       else f"{scope}{step.id}")
            for out_id in step.out:
                producer[f"{step.id}/{out_id}"] = node_id

        for step in workflow.steps:
            deps: List[str] = []
            for step_input in step.in_:
                for source in step_input.source:
                    if "/" in source:
                        if source not in producer:
                            raise WorkflowException(
                                f"step {step.id!r} references unknown step output {source!r}")
                        deps.append(producer[source])
                    else:
                        if source not in input_ids:
                            raise WorkflowException(
                                f"step {step.id!r} references unknown workflow input {source!r}")
                        if entry is not None:
                            deps.append(entry)
            if entry is not None and not deps:
                # Every root of a flattened child subgraph must observe the
                # ingress — even a step with no sources at all — so a false
                # `when` guard on the subworkflow step reliably skips it.
                deps.append(entry)
            if step.id in flattened:
                self._add_flattened_subworkflow(step, resolved[step.id], workflow, scope, deps)
            else:
                kind = SCATTER if step.scatter else STEP
                self.add_node(GraphNode(id=f"{scope}{step.id}", kind=kind, step=step,
                                        workflow=workflow, scope=scope), preds=deps)
        return producer

    def _add_flattened_subworkflow(self, step: WorkflowStep, child: Workflow,
                                   parent: Workflow, scope: str,
                                   deps: Sequence[str]) -> None:
        ingress_id = f"{scope}{step.id}@in"
        child_scope = f"{scope}{step.id}/"
        self.add_node(GraphNode(id=ingress_id, kind=INGRESS, step=step, workflow=parent,
                                scope=scope, child=child, child_scope=child_scope),
                      preds=deps)
        self.add_subworkflow_instance(step, child, child_scope, entry=ingress_id)

    def add_subworkflow_instance(self, step: WorkflowStep, child: Workflow,
                                 child_scope: str, entry: Optional[str]) -> str:
        """Add ``child``'s steps under ``child_scope`` plus an egress node.

        Returns the egress node id.  Used both for static flattening (with
        ``entry`` = the ingress node) and for scatter-shard expansion of
        subworkflow steps (``entry=None``, inputs seeded at expansion time).
        """
        producer = self.add_workflow(child, child_scope, entry=entry)
        child_inputs = {param.id for param in child.inputs}
        deps: List[str] = []
        for output in child.workflow_outputs:
            for source in output.output_source:
                if "/" in source:
                    if source not in producer:
                        raise WorkflowException(
                            f"workflow output {output.id!r} references unknown "
                            f"step output {source!r}")
                    deps.append(producer[source])
                elif source in child_inputs and entry is not None:
                    deps.append(entry)
        if entry is not None:
            # The egress must observe the ingress even with no wired outputs,
            # so `when: false` skips propagate and records always materialise.
            deps.append(entry)
        egress_id = child_scope.rstrip("/") + "@out"
        self.add_node(GraphNode(id=egress_id, kind=EGRESS, step=step, workflow=child,
                                scope=child_scope, child=child, child_scope=child_scope),
                      preds=deps)
        return egress_id

    # ------------------------------------------------------------------ output

    def finish(self) -> WorkflowGraph:
        graph = WorkflowGraph()
        graph.nodes = self.nodes
        graph.predecessors = self.preds
        graph._finalise()
        return graph


def build_graph(workflow: Workflow, resolve: Optional[StepResolver] = None) -> WorkflowGraph:
    """Compile ``workflow`` into its dataflow :class:`WorkflowGraph`."""
    builder = GraphBuilder(resolve=resolve)
    builder.add_workflow(workflow, scope="", entry=None)
    return builder.finish()
