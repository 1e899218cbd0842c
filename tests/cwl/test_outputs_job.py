"""Tests for output collection and single-tool job execution."""

from __future__ import annotations

import os

import pytest

from repro.cwl.command_line import build_command_line
from repro.cwl.errors import InputValidationError, JobFailure, OutputCollectionError
from repro.cwl.expressions.compiler import CompiledEvaluator
from repro.cwl.job import CommandLineJob
from repro.cwl.loader import load_document, load_tool
from repro.cwl.outputs import collect_output, collect_outputs
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandOutputParameter

RUNTIME = {"outdir": "/out", "tmpdir": "/tmp", "cores": 1, "ram": 1024}
EVALUATOR = CompiledEvaluator()


# ------------------------------------------------------------- output collection


def test_collect_stdout_output(tmp_path):
    stdout_file = tmp_path / "captured.txt"
    stdout_file.write_text("result")
    param = CommandOutputParameter.from_dict("out", "stdout")
    value = collect_output(param, str(tmp_path), str(stdout_file), None, {}, RUNTIME, EVALUATOR)
    assert value["class"] == "File"
    assert value["basename"] == "captured.txt"
    assert value["size"] == 6


def test_collect_stdout_missing_file_raises(tmp_path):
    param = CommandOutputParameter.from_dict("out", "stdout")
    with pytest.raises(OutputCollectionError):
        collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR)


def test_collect_glob_literal_and_expression(tmp_path):
    (tmp_path / "result.txt").write_text("x")
    literal = CommandOutputParameter.from_dict(
        "o1", {"type": "File", "outputBinding": {"glob": "result.txt"}})
    reference = CommandOutputParameter.from_dict(
        "o2", {"type": "File", "outputBinding": {"glob": "$(inputs.name)"}})
    assert collect_output(literal, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR)["basename"] == "result.txt"
    assert collect_output(reference, str(tmp_path), None, None,
                          {"name": "result.txt"}, RUNTIME, EVALUATOR)["basename"] == "result.txt"


def test_collect_glob_array_output(tmp_path):
    for name in ("b.log", "a.log"):
        (tmp_path / name).write_text(name)
    param = CommandOutputParameter.from_dict(
        "logs", {"type": "File[]", "outputBinding": {"glob": "*.log"}})
    values = collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR)
    assert [v["basename"] for v in values] == ["a.log", "b.log"]


def test_collect_glob_load_contents(tmp_path):
    (tmp_path / "small.txt").write_text("contents!")
    param = CommandOutputParameter.from_dict(
        "o", {"type": "File", "outputBinding": {"glob": "small.txt", "loadContents": True}})
    assert collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR)["contents"] == "contents!"


def test_collect_output_eval_transforms_matches(tmp_path):
    (tmp_path / "count.txt").write_text("17\n")
    param = CommandOutputParameter.from_dict(
        "n", {"type": "int",
              "outputBinding": {"glob": "count.txt", "loadContents": True,
                                "outputEval": "$(parseInt(self[0].contents))"}})
    assert collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR) == 17


def test_collect_missing_required_output_raises(tmp_path):
    param = CommandOutputParameter.from_dict(
        "must", {"type": "File", "outputBinding": {"glob": "nope.txt"}})
    with pytest.raises(OutputCollectionError):
        collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR)


def test_collect_optional_output_absent_is_none(tmp_path):
    param = CommandOutputParameter.from_dict(
        "maybe", {"type": "File?", "outputBinding": {"glob": "nope.txt"}})
    assert collect_output(param, str(tmp_path), None, None, {}, RUNTIME, EVALUATOR) is None


def test_collect_outputs_for_whole_tool(tmp_path, cwl_dir):
    tool = load_tool(cwl_dir / "resize_image.cwl")
    (tmp_path / "resized.png").write_bytes(b"png-bytes")
    outputs = collect_outputs(tool, str(tmp_path), None, None,
                              {"output_image": "resized.png"}, RUNTIME, EVALUATOR)
    assert outputs["output_image"]["basename"] == "resized.png"


# ----------------------------------------------------------------- job execution


def test_command_line_job_execute_echo(cwl_dir, tmp_path):
    tool = load_tool(cwl_dir / "echo.cwl")
    job = CommandLineJob(tool, {"message": "from the job test"},
                         RuntimeContext(basedir=str(tmp_path)))
    result = job.execute()
    assert result.exit_code == 0
    assert result.outputs["output"]["basename"] == "hello.txt"
    with open(result.outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "from the job test"


def test_command_line_job_uses_defaults(cwl_dir, tmp_path):
    tool = load_tool(cwl_dir / "echo.cwl")
    job = CommandLineJob(tool, {}, RuntimeContext(basedir=str(tmp_path)))
    result = job.execute()
    with open(result.outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "Hello World"


def test_command_line_job_validation_errors(cwl_dir, tmp_path):
    tool = load_tool(cwl_dir / "resize_image.cwl")
    missing = CommandLineJob(tool, {}, RuntimeContext(basedir=str(tmp_path)))
    problems = missing.validate_inputs()
    assert any("input_image" in p for p in problems)
    with pytest.raises(InputValidationError):
        missing.execute()

    wrong_type = CommandLineJob(tool, {"input_image": {"class": "File", "path": "/x.png"},
                                       "size": "not-an-int"},
                                RuntimeContext(basedir=str(tmp_path)))
    assert any("size" in p for p in wrong_type.validate_inputs())


def test_command_line_job_unknown_input_reported(cwl_dir, tmp_path):
    tool = load_tool(cwl_dir / "echo.cwl")
    job = CommandLineJob(tool, {"message": "x", "bogus": 1}, RuntimeContext(basedir=str(tmp_path)))
    assert any("bogus" in p for p in job.validate_inputs())


def test_command_line_job_failure_raises(tmp_path):
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["false"], "inputs": {}, "outputs": {},
    })
    job = CommandLineJob(tool, {}, RuntimeContext(basedir=str(tmp_path)))
    with pytest.raises(JobFailure):
        job.execute()


def test_command_line_job_success_codes_respected(tmp_path):
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["bash", "-c", "exit 3"], "successCodes": [0, 3],
        "inputs": {}, "outputs": {},
    })
    result = CommandLineJob(tool, {}, RuntimeContext(basedir=str(tmp_path))).execute()
    assert result.exit_code == 3


def test_command_line_job_env_requirement(tmp_path):
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["bash", "-c", "echo $GREETING"],
        "requirements": [{"class": "EnvVarRequirement", "envDef": {"GREETING": "salut"}}],
        "inputs": {}, "outputs": {"out": "stdout"}, "stdout": "env.txt",
    })
    result = CommandLineJob(tool, {}, RuntimeContext(basedir=str(tmp_path))).execute()
    with open(result.outputs["out"]["path"]) as handle:
        assert handle.read().strip() == "salut"


def test_command_line_job_build_only(cwl_dir, tmp_path):
    """The command line a job would run, built without running it (what the
    Parsl bridge does on the execution side of a ``CWLApp``)."""
    tool = load_tool(cwl_dir / "blur_image.cwl")
    job = CommandLineJob(tool, {"input_image": {"class": "File", "path": "/img/in.png"},
                                "radius": 3})
    runtime = RuntimeContext().with_resources(tool).runtime_object(str(tmp_path), str(tmp_path))
    parts = build_command_line(tool, job.job_order, runtime, job.make_evaluator())
    assert parts.argv[:4] == ["python3", "-m", "repro.imaging.cli", "blur"]
    assert "--radius" in parts.argv and "3" in parts.argv
    assert "/img/in.png" in parts.argv
    assert os.listdir(tmp_path) == []


def test_image_tool_executes_fully(cwl_dir, tmp_path, small_image):
    tool = load_tool(cwl_dir / "resize_image.cwl")
    job = CommandLineJob(
        tool,
        {"input_image": {"class": "File", "path": small_image}, "size": 16,
         "output_image": "tiny.png"},
        RuntimeContext(basedir=str(tmp_path)),
    )
    result = job.execute()
    out = result.outputs["output_image"]
    assert out["basename"] == "tiny.png"
    from repro.imaging.png import read_png

    assert read_png(out["path"]).shape == (16, 16, 3)
