"""Tests for document loading/normalisation and the document model."""

from __future__ import annotations

import pytest

from repro.cwl.errors import ValidationException
from repro.cwl.loader import load_document, load_tool
from repro.cwl.schema import CommandLineTool, ExpressionTool, Workflow
from repro.utils.yamlio import dump_yaml


def test_load_echo_tool(cwl_dir):
    tool = load_tool(cwl_dir / "echo.cwl")
    assert isinstance(tool, CommandLineTool)
    assert tool.base_command == ["echo"]
    assert tool.input_ids() == ["message"]
    message = tool.get_input("message")
    assert message.has_default and message.default == "Hello World"
    assert message.input_binding.position == 1
    assert tool.stdout == "hello.txt"
    assert tool.outputs[0].raw_type == "stdout"


def test_load_tool_rejects_workflow(cwl_dir):
    with pytest.raises(ValidationException):
        load_tool(cwl_dir / "image_pipeline.cwl")


def test_load_workflow_steps_and_outputs(cwl_dir):
    workflow = load_document(cwl_dir / "image_pipeline.cwl")
    assert isinstance(workflow, Workflow)
    assert workflow.step_ids() == ["resize_image", "filter_image", "blur_image"]
    step = workflow.get_step("filter_image")
    assert step.embedded_process is not None
    assert step.get_input("input_image").source == ["resize_image/output_image"]
    assert step.get_input("output_image").value_from == "filtered.png"
    assert workflow.workflow_outputs[0].output_source == ["blur_image/output_image"]


def test_scatter_wrapper_loads(cwl_dir):
    workflow = load_document(cwl_dir / "scatter_images.cwl")
    step = workflow.get_step("process_image")
    assert step.scatter == ["input_image"]
    assert step.scatter_method == "dotproduct"
    assert isinstance(step.embedded_process, Workflow)


def test_requirements_as_map_or_list_are_equivalent():
    list_form = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "true",
        "requirements": [{"class": "EnvVarRequirement", "envDef": {"X": "1"}}],
        "inputs": {}, "outputs": {},
    })
    map_form = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "true",
        "requirements": {"EnvVarRequirement": {"envDef": {"X": "1"}}},
        "inputs": {}, "outputs": {},
    })
    assert list_form.get_requirement("EnvVarRequirement") == \
        map_form.get_requirement("EnvVarRequirement")


def test_inputs_accept_shorthand_types():
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "true",
        "inputs": {"name": "string", "count": "int?"},
        "outputs": {},
    })
    assert tool.get_input("name").type.kind == "string"
    assert tool.get_input("count").type.is_optional


def test_inputs_as_list_with_ids():
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "true",
        "inputs": [{"id": "alpha", "type": "string"}],
        "outputs": [],
    })
    assert tool.input_ids() == ["alpha"]


def test_hash_prefixed_identifiers_are_stripped():
    workflow = load_document({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"msg": "string"},
        "outputs": {"out": {"type": "File", "outputSource": "#step1/result"}},
        "steps": {
            "step1": {
                "run": {"cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "echo",
                        "inputs": {"msg": {"type": "string", "inputBinding": {"position": 1}}},
                        "outputs": {"result": "stdout"}, "stdout": "o.txt"},
                "in": {"msg": "#msg"},
                "out": ["#result"],
            }
        },
    })
    step = workflow.get_step("step1")
    assert step.get_input("msg").source == ["msg"]
    assert step.out == ["result"]
    assert workflow.workflow_outputs[0].output_source == ["step1/result"]


def test_missing_class_rejected():
    with pytest.raises(ValidationException):
        load_document({"cwlVersion": "v1.2", "inputs": {}, "outputs": {}})


def test_step_without_run_rejected():
    with pytest.raises(ValidationException):
        load_document({
            "cwlVersion": "v1.2", "class": "Workflow", "inputs": {}, "outputs": {},
            "steps": {"broken": {"in": {}, "out": []}},
        })


def test_expression_tool_loading():
    tool = load_document({
        "cwlVersion": "v1.2", "class": "ExpressionTool",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"x": "int"},
        "outputs": {"doubled": "int"},
        "expression": "$({'doubled': inputs.x * 2})",
    })
    assert isinstance(tool, ExpressionTool)
    assert "doubled" in tool.output_ids()


def test_graph_documents_resolve_main_and_refs(tmp_path):
    doc = {
        "cwlVersion": "v1.2",
        "$graph": [
            {"id": "echo", "class": "CommandLineTool", "baseCommand": "echo",
             "inputs": {"m": {"type": "string", "inputBinding": {"position": 1}}},
             "outputs": {"o": "stdout"}, "stdout": "x.txt"},
            {"id": "main", "class": "Workflow",
             "inputs": {"m": "string"},
             "outputs": {"final": {"type": "File", "outputSource": "say/o"}},
             "steps": {"say": {"run": "#echo", "in": {"m": "m"}, "out": ["o"]}}},
        ],
    }
    path = tmp_path / "packed.cwl"
    path.write_text(dump_yaml(doc))
    workflow = load_document(path)
    assert isinstance(workflow, Workflow)
    assert isinstance(workflow.get_step("say").embedded_process, CommandLineTool)


def test_graph_without_main_rejected():
    with pytest.raises(ValidationException):
        load_document({"cwlVersion": "v1.2", "$graph": [
            {"id": "only", "class": "CommandLineTool", "baseCommand": "true",
             "inputs": {}, "outputs": {}}]})


def test_process_accessors(cwl_dir):
    tool = load_tool(cwl_dir / "resize_image.cwl")
    assert tool.get_input("missing") is None
    assert tool.get_output("output_image") is not None
    assert tool.get_requirement("DockerRequirement") is None
    assert set(tool.output_ids()) == {"output_image"}


def test_malformed_yaml_is_a_validation_error_naming_path_line_and_column(tmp_path):
    import yaml

    path = tmp_path / "broken.cwl"
    path.write_text("class: CommandLineTool\ninputs: [a, b\nbaseCommand: echo\n")
    with pytest.raises(ValidationException) as caught:
        load_document(path)
    assert str(caught.value) == f"{path}:3:12: invalid YAML (ParserError)"
    assert isinstance(caught.value.__cause__, yaml.parser.ParserError)


def test_duplicate_key_is_rejected_not_last_wins(tmp_path):
    path = tmp_path / "twice.cwl"
    path.write_text("class: CommandLineTool\nbaseCommand: echo\ninputs: {}\n"
                    "outputs: {}\nbaseCommand: rm\n")
    with pytest.raises(ValidationException, match=r"twice\.cwl:5:1: invalid YAML: found "
                                                  r"duplicate key 'baseCommand' \(first given on line 2\)"):
        load_document(path)
