"""Tests for the workflow dataflow IR (repro.cwl.graph)."""

from __future__ import annotations

import os

import pytest

from repro.cwl.errors import InputValidationError, ValidationException, WorkflowException
from repro.cwl.graph import (
    EGRESS,
    INGRESS,
    SCATTER,
    STEP,
    build_graph,
    find_step_cycle,
    resolve_run_reference,
    seed_workflow_inputs,
)
from repro.cwl.loader import load_document

SIMPLE_TOOL = {
    "class": "CommandLineTool", "baseCommand": "x",
    "inputs": {"value": "Any"},
    "outputs": {"out": {"type": "Any", "outputBinding": {"outputEval": "$(1)"}}},
}


def make_workflow(doc):
    return load_document(doc)


def pipeline_workflow():
    """resize -> filter -> blur plus an independent side step."""
    return make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"start": "int"},
        "outputs": {"final": {"type": "Any", "outputSource": "blur/out"}},
        "steps": {
            "resize": {"run": dict(SIMPLE_TOOL), "in": {"value": "start"}, "out": ["out"]},
            "filter": {"run": dict(SIMPLE_TOOL), "in": {"value": "resize/out"}, "out": ["out"]},
            "blur": {"run": dict(SIMPLE_TOOL), "in": {"value": "filter/out"}, "out": ["out"]},
            "side": {"run": dict(SIMPLE_TOOL), "in": {"value": "start"}, "out": ["out"]},
        },
    })


# --------------------------------------------------------------------- builds

def test_linear_chain_nodes_edges_and_priorities():
    graph = build_graph(pipeline_workflow())
    assert set(graph.nodes) == {"resize", "filter", "blur", "side"}
    assert graph.indegree == {"resize": 0, "filter": 1, "blur": 1, "side": 0}
    assert ("resize", "filter") in graph.edges()
    assert ("filter", "blur") in graph.edges()
    # Critical-path priorities: length of the longest dependent chain.
    assert graph.nodes["resize"].priority == 3
    assert graph.nodes["filter"].priority == 2
    assert graph.nodes["blur"].priority == 1
    assert graph.nodes["side"].priority == 1
    assert graph.critical_path() == ["resize", "filter", "blur"]


def test_topological_order_is_dependency_consistent():
    graph = build_graph(pipeline_workflow())
    order = graph.topological_order()
    for pred, succ in graph.edges():
        assert order.index(pred) < order.index(succ)


def test_scatter_step_is_a_single_expandable_node():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"values": "int[]"},
        "outputs": {"all": {"type": "Any[]", "outputSource": "per_value/out"}},
        "steps": {
            "per_value": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                          "in": {"value": "values"}, "out": ["out"]},
        },
    })
    graph = build_graph(workflow)
    assert graph.nodes["per_value"].kind == SCATTER
    description = graph.describe()
    (node,) = description["nodes"]
    assert node["scatter"] is True


def test_subworkflow_is_flattened_with_ingress_and_egress():
    child = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"value": "Any"},
        "outputs": {"result": {"type": "Any", "outputSource": "inner/out"}},
        "steps": {"inner": {"run": dict(SIMPLE_TOOL), "in": {"value": "value"},
                            "out": ["out"]}},
    }
    parent = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "SubworkflowFeatureRequirement"}],
        "inputs": {"start": "int"},
        "outputs": {"final": {"type": "Any", "outputSource": "sub/result"}},
        "steps": {
            "sub": {"run": child, "in": {"value": "start"}, "out": ["result"]},
            "after": {"run": dict(SIMPLE_TOOL), "in": {"value": "sub/result"},
                      "out": ["out"]},
        },
    })
    graph = build_graph(parent)
    assert set(graph.nodes) == {"sub@in", "sub/inner", "sub@out", "after"}
    assert graph.nodes["sub@in"].kind == INGRESS
    assert graph.nodes["sub/inner"].kind == STEP
    assert graph.nodes["sub/inner"].scope == "sub/"
    assert graph.nodes["sub@out"].kind == EGRESS
    # Dataflow: ingress -> inner -> egress -> after.
    edges = graph.edges()
    assert ("sub@in", "sub/inner") in edges
    assert ("sub/inner", "sub@out") in edges
    assert ("sub@out", "after") in edges


# --------------------------------------------------------------------- errors

def test_cycle_raises_naming_the_steps():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"seed": "int"},
        "outputs": {},
        "steps": {
            "a": {"run": dict(SIMPLE_TOOL), "in": {"value": "c/out"}, "out": ["out"]},
            "b": {"run": dict(SIMPLE_TOOL), "in": {"value": "a/out"}, "out": ["out"]},
            "c": {"run": dict(SIMPLE_TOOL), "in": {"value": "b/out"}, "out": ["out"]},
        },
    })
    with pytest.raises(ValidationException) as excinfo:
        build_graph(workflow)
    message = str(excinfo.value)
    assert "cycle" in message
    for step_id in ("a", "b", "c"):
        assert step_id in message


def test_find_step_cycle_returns_cycle_in_order():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"seed": "int"},
        "outputs": {},
        "steps": {
            "a": {"run": dict(SIMPLE_TOOL), "in": {"value": "b/out"}, "out": ["out"]},
            "b": {"run": dict(SIMPLE_TOOL), "in": {"value": "a/out"}, "out": ["out"]},
        },
    })
    cycle = find_step_cycle(workflow)
    assert len(cycle) == 3 and cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b"}


def test_acyclic_workflow_has_no_cycle():
    assert find_step_cycle(pipeline_workflow()) == []


def test_unknown_source_raises_at_build_time():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"seed": "int"},
        "outputs": {},
        "steps": {"a": {"run": dict(SIMPLE_TOOL), "in": {"value": "ghost/out"},
                        "out": ["out"]}},
    })
    with pytest.raises(WorkflowException, match="unknown step output"):
        build_graph(workflow)


# -------------------------------------------------------- shared helpers

def test_resolve_run_reference_handles_relative_forms():
    assert resolve_run_reference("tool.cwl", "/wf/pipeline.cwl") == "/wf/tool.cwl"
    assert resolve_run_reference("./tool.cwl", "/wf/pipeline.cwl") == "/wf/tool.cwl"
    assert resolve_run_reference("../tools/t.cwl", "/wf/sub/p.cwl") == "/wf/tools/t.cwl"
    assert resolve_run_reference("/abs/t.cwl", "/wf/p.cwl") == os.path.normpath("/abs/t.cwl")
    assert resolve_run_reference("t.cwl", None) == "t.cwl"


def test_seed_workflow_inputs_defaults_optionals_and_required():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {
            "required": "int",
            "defaulted": {"type": "int", "default": 7},
            "optional": "int?",
        },
        "outputs": {},
        "steps": {"s": {"run": dict(SIMPLE_TOOL), "in": {"value": "required"},
                        "out": ["out"]}},
    })
    values = seed_workflow_inputs(workflow, {"required": 1})
    assert values == {"required": 1, "defaulted": 7, "optional": None}
    with pytest.raises(InputValidationError, match="required"):
        seed_workflow_inputs(workflow, {})


def test_describe_is_json_ready():
    import json

    description = build_graph(pipeline_workflow()).describe()
    payload = json.loads(json.dumps(description))
    assert payload["node_count"] == 4
    assert payload["edge_count"] == 2
    assert payload["critical_path"] == ["resize", "filter", "blur"]
    assert payload["critical_path_length"] == 3
