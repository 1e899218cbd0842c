"""Execution-plan introspection: the workflow dataflow IR through the API.

``api.plan(process)`` (and :meth:`Session.plan`) compile a process into the
same :class:`~repro.cwl.graph.WorkflowGraph` every engine executes from and
return its node/edge/critical-path summary — the DAG a run *will* follow,
available without running anything.  Engines attach the same summary to
:attr:`ExecutionResult.plan` when they execute a Workflow.

Quick look::

    from repro import api

    plan = api.plan("examples/cwl/image_pipeline.cwl")
    print(plan.node_count, plan.critical_path)
    # 3 ['resize_image', 'filter_image', 'blur_image']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.api.engine import Engine
from repro.cwl.graph import build_graph
from repro.cwl.schema import Workflow


@dataclass
class ExecutionPlan:
    """The dataflow graph a process execution will follow."""

    #: Id of the planned process (may be empty for anonymous documents).
    process_id: str
    #: ``"Workflow"`` or the process class name for single-process plans.
    kind: str
    #: One entry per graph node: id, kind, scope, step, priority, scatter, deps.
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    #: ``[from, to]`` dependency edges (from must complete before to starts).
    edges: List[List[str]] = field(default_factory=list)
    #: Node ids along one longest dependency chain.
    critical_path: List[str] = field(default_factory=list)
    #: Length of that chain (the minimum number of sequential waves).
    critical_path_length: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def scatter_nodes(self) -> List[str]:
        """Ids of nodes that expand into shards at runtime."""
        return [node["id"] for node in self.nodes if node.get("scatter")]

    def max_parallelism(self) -> int:
        """Width of the widest anti-chain approximation: nodes per depth level."""
        depth: Dict[str, int] = {}
        preds: Dict[str, List[str]] = {node["id"]: list(node.get("deps", []))
                                       for node in self.nodes}
        for node in self.nodes:  # nodes are topologically ordered
            node_id = node["id"]
            depth[node_id] = 1 + max((depth[p] for p in preds[node_id] if p in depth),
                                     default=0)
        widths: Dict[int, int] = {}
        for level in depth.values():
            widths[level] = widths.get(level, 0) + 1
        return max(widths.values(), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "process_id": self.process_id,
            "kind": self.kind,
            "nodes": self.nodes,
            "edges": self.edges,
            "critical_path": self.critical_path,
            "critical_path_length": self.critical_path_length,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
        }


def describe_workflow(workflow: Workflow) -> Dict[str, Any]:
    """The graph summary of ``workflow``: what an engine that runs it attaches
    to :attr:`ExecutionResult.plan`, from the graph it executed."""
    return build_graph(workflow).describe()


def plan_for(process: Any) -> ExecutionPlan:
    """Build the :class:`ExecutionPlan` for an already-loaded process."""
    if isinstance(process, Workflow):
        description = describe_workflow(process)
        return ExecutionPlan(
            process_id=process.id or "",
            kind="Workflow",
            nodes=description["nodes"],
            edges=description["edges"],
            critical_path=description["critical_path"],
            critical_path_length=description["critical_path_length"],
        )
    node_id = process.job_name
    return ExecutionPlan(
        process_id=process.id or "",
        kind=type(process).__name__,
        nodes=[{"id": node_id, "kind": "step", "scope": "", "step": None,
                "priority": 1, "scatter": False, "deps": []}],
        edges=[],
        critical_path=[node_id],
        critical_path_length=1,
    )


def plan(process: Any) -> ExecutionPlan:
    """Compile ``process`` (path, dict or loaded Process) into its plan."""
    return plan_for(Engine.load_process(process))
