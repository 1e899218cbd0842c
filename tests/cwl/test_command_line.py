"""Tests for command-line construction from tools and job orders."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cwl.command_line import build_command_line, fill_in_defaults
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.loader import load_document, load_tool
from repro.cwl.types import build_file_value

RUNTIME = {"outdir": "/out", "tmpdir": "/tmp", "cores": 1, "ram": 1024}


def build(tool, job_order):
    return build_command_line(tool, job_order, RUNTIME, precompile_process(tool))


def make_tool(**overrides):
    doc = {
        "cwlVersion": "v1.2",
        "class": "CommandLineTool",
        "baseCommand": "tool",
        "inputs": {},
        "outputs": {},
    }
    doc.update(overrides)
    return load_document(doc)


def test_echo_tool_positional_binding(cwl_dir):
    tool = load_tool(cwl_dir / "echo.cwl")
    parts = build(tool, {"message": "Hello, World!"})
    assert parts.argv == ["echo", "Hello, World!"]
    assert parts.stdout == "hello.txt"
    assert parts.stderr is None


def test_prefix_with_separate_true_and_false():
    tool = make_tool(inputs={
        "alpha": {"type": "int", "inputBinding": {"prefix": "--alpha"}},
        "beta": {"type": "int", "inputBinding": {"prefix": "--beta=", "separate": False}},
    })
    parts = build(tool, {"alpha": 1, "beta": 2})
    assert parts.argv == ["tool", "--alpha", "1", "--beta=2"]


def test_positions_are_respected():
    tool = make_tool(inputs={
        "last": {"type": "string", "inputBinding": {"position": 5}},
        "first": {"type": "string", "inputBinding": {"position": 1}},
        "middle": {"type": "string", "inputBinding": {"position": 3}},
    })
    parts = build(tool, {"last": "c", "first": "a", "middle": "b"})
    assert parts.argv == ["tool", "a", "b", "c"]


def test_boolean_flag_only_emitted_when_true():
    tool = make_tool(inputs={"verbose": {"type": "boolean", "inputBinding": {"prefix": "--verbose"}}})
    assert build(tool, {"verbose": True}).argv == ["tool", "--verbose"]
    assert build(tool, {"verbose": False}).argv == ["tool"]


def test_optional_missing_input_contributes_nothing():
    tool = make_tool(inputs={"opt": {"type": "string?", "inputBinding": {"prefix": "--opt"}}})
    assert build(tool, {}).argv == ["tool"]


def test_array_with_item_separator():
    tool = make_tool(inputs={
        "names": {"type": "string[]",
                  "inputBinding": {"prefix": "--names", "itemSeparator": ","}}})
    parts = build(tool, {"names": ["a", "b", "c"]})
    assert parts.argv == ["tool", "--names", "a,b,c"]


def test_array_without_item_separator_repeats_prefix():
    tool = make_tool(inputs={
        "include": {"type": "string[]", "inputBinding": {"prefix": "-I"}}})
    parts = build(tool, {"include": ["x", "y"]})
    assert parts.argv == ["tool", "-I", "x", "-I", "y"]


def test_empty_array_contributes_nothing():
    tool = make_tool(inputs={"xs": {"type": "string[]", "inputBinding": {"prefix": "-x"}}})
    assert build(tool, {"xs": []}).argv == ["tool"]


def test_file_value_renders_as_path(tmp_path):
    data = tmp_path / "input.dat"
    data.write_text("x")
    tool = make_tool(inputs={"data": {"type": "File", "inputBinding": {"position": 1}}})
    parts = build(tool, {"data": build_file_value(str(data))})
    assert parts.argv == ["tool", str(data)]


def test_arguments_strings_and_bindings():
    tool = make_tool(
        arguments=["--fixed", {"prefix": "--derived", "valueFrom": "$(inputs.n)", "position": 4}],
        inputs={"n": {"type": "int", "inputBinding": {"position": 2}}},
    )
    parts = build(tool, {"n": 9})
    assert parts.argv == ["tool", "--fixed", "9", "--derived", "9"]


def test_value_from_overrides_value_with_self():
    tool = make_tool(inputs={
        "path": {"type": "string",
                 "inputBinding": {"position": 1, "valueFrom": "$(self.toUpperCase())"}}},
        requirements=[{"class": "InlineJavascriptRequirement"}])
    parts = build(tool, {"path": "abc"})
    assert parts.argv == ["tool", "ABC"]


def test_stdout_stderr_stdin_expressions():
    tool = make_tool(
        inputs={"name": {"type": "string"}},
        stdout="$(inputs.name).out",
        stderr="$(inputs.name).err",
        stdin="/data/$(inputs.name).in",
    )
    parts = build(tool, {"name": "job1"})
    assert parts.stdout == "job1.out"
    assert parts.stderr == "job1.err"
    assert parts.stdin == "/data/job1.in"


def test_default_stdout_name_for_stdout_outputs():
    tool = make_tool(outputs={"captured": "stdout"})
    parts = build(tool, {})
    assert parts.stdout is not None and parts.stdout.endswith(".stdout")


def test_env_var_requirement_expressions():
    tool = make_tool(
        inputs={"threads": {"type": "int"}},
        requirements=[{"class": "EnvVarRequirement",
                       "envDef": {"OMP_NUM_THREADS": "$(inputs.threads)", "MODE": "fast"}}],
    )
    parts = build(tool, {"threads": 16})
    assert parts.environment == {"OMP_NUM_THREADS": "16", "MODE": "fast"}


def test_base_command_list_and_numeric_rendering():
    tool = make_tool(baseCommand=["python3", "-m", "mytool"],
                     inputs={"rate": {"type": "float", "inputBinding": {"prefix": "--rate"}}})
    parts = build(tool, {"rate": 2.0})
    assert parts.argv == ["python3", "-m", "mytool", "--rate", "2"]


def test_fill_in_defaults():
    tool = make_tool(inputs={
        "required": "string",
        "with_default": {"type": "int", "default": 7},
        "optional": "string?",
    })
    filled = fill_in_defaults(tool.inputs, {"required": "x"})
    assert filled == {"required": "x", "with_default": 7, "optional": None}
    # Explicit values win over defaults.
    assert fill_in_defaults(tool.inputs, {"required": "x", "with_default": 1})["with_default"] == 1


# ---------------------------------------------------------------------- property


@given(positions=st.lists(st.integers(min_value=-5, max_value=20), min_size=1, max_size=8,
                          unique=True))
def test_property_argv_order_follows_positions(positions):
    """Property: bound inputs appear on the command line sorted by position."""
    inputs = {
        f"p{i}": {"type": "string", "inputBinding": {"position": position}}
        for i, position in enumerate(positions)
    }
    tool = make_tool(inputs=inputs)
    job = {f"p{i}": f"value{position}" for i, position in enumerate(positions)}
    argv = build(tool, job).argv[1:]
    expected = [f"value{p}" for p in sorted(positions)]
    assert argv == expected


@given(values=st.lists(st.text(alphabet="abcXYZ019-_.", min_size=1, max_size=8), max_size=6))
def test_property_array_item_separator_round_trip(values):
    """Property: itemSeparator joining matches a straight join of stringified values."""
    tool = make_tool(inputs={"xs": {"type": "string[]",
                                    "inputBinding": {"prefix": "--xs", "itemSeparator": ","}}})
    argv = build(tool, {"xs": list(values)}).argv
    if not values:
        assert argv == ["tool"]
    else:
        assert argv == ["tool", "--xs", ",".join(values)]
