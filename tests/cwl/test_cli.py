"""Tests for the repro-cwltool, repro-toil-cwl-runner and parsl-cwl CLIs."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.core.cli import main as parsl_cwl_main
from repro.cwl.cli import cwltool_main, parse_cli_inputs, parse_job_order, toil_main
from repro.utils.yamlio import dump_yaml


def test_parse_cli_inputs_forms():
    parsed = parse_cli_inputs(["--message", "hello", "--count=3", "--rate", "0.5",
                               "--flag", "true", "--bare"])
    assert parsed == {"message": "hello", "count": 3, "rate": 0.5, "flag": True, "bare": True}


def test_parse_cli_inputs_rejects_positional():
    with pytest.raises(ValueError):
        parse_cli_inputs(["oops"])


def test_parse_job_order_merges_file_and_overrides(tmp_path):
    job_file = tmp_path / "job.yml"
    job_file.write_text(dump_yaml({"message": "from file", "count": 1}))
    merged = parse_job_order(str(job_file), ["--count", "2"])
    assert merged == {"message": "from file", "count": 2}


def test_parse_job_order_rejects_non_mapping(tmp_path):
    job_file = tmp_path / "job.yml"
    job_file.write_text("- just\n- a\n- list\n")
    with pytest.raises(ValueError):
        parse_job_order(str(job_file), [])


def test_cwltool_main_runs_tool(cwl_dir, tmp_path, capsys):
    exit_code = cwltool_main(["--outdir", str(tmp_path), "--quiet",
                              str(cwl_dir / "echo.cwl"), "--message", "cli hello"])
    assert exit_code == 0
    outputs = json.loads(capsys.readouterr().out)
    assert outputs["output"]["basename"] == "hello.txt"
    with open(outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "cli hello"


def test_cwltool_main_with_job_order_file(cwl_dir, tmp_path, capsys):
    job_file = tmp_path / "inputs.yml"
    job_file.write_text(dump_yaml({"message": "yaml order"}))
    exit_code = cwltool_main(["--outdir", str(tmp_path), "--quiet",
                              str(cwl_dir / "echo.cwl"), str(job_file)])
    assert exit_code == 0
    outputs = json.loads(capsys.readouterr().out)
    with open(outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "yaml order"


def test_cwltool_main_workflow_parallel(cwl_dir, tmp_path, small_image, capsys):
    job_file = tmp_path / "job.yml"
    job_file.write_text(dump_yaml({
        "input_image": {"class": "File", "path": small_image},
        "size": 16, "sepia": True, "radius": 1,
    }))
    exit_code = cwltool_main(["--parallel", "--outdir", str(tmp_path / "out"), "--quiet",
                              str(cwl_dir / "image_pipeline.cwl"), str(job_file)])
    assert exit_code == 0
    outputs = json.loads(capsys.readouterr().out)
    assert outputs["final_output"]["basename"] == "blurred.png"


def test_cwltool_main_reports_errors(cwl_dir, tmp_path, capsys):
    exit_code = cwltool_main([str(cwl_dir / "resize_image.cwl")])  # missing required inputs
    assert exit_code == 1
    assert "error" in capsys.readouterr().err


def test_toil_main_single_machine(cwl_dir, tmp_path, capsys):
    exit_code = toil_main(["--outdir", str(tmp_path), "--jobStore", str(tmp_path / "js"),
                           "--quiet", str(cwl_dir / "echo.cwl"), "--message", "toil cli"])
    assert exit_code == 0
    outputs = json.loads(capsys.readouterr().out)
    with open(outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "toil cli"


def test_toil_main_error_path(tmp_path, capsys):
    exit_code = toil_main([str(tmp_path / "missing.cwl")])
    assert exit_code == 1
    assert "error" in capsys.readouterr().err


def test_the_three_clis_offer_the_same_run_option_flags(capsys):
    """Each script's ``--help`` flags, minus its own backend flags, are one set."""
    backend_flags = {
        cwltool_main: {"--parallel", "--max-workers"},
        toil_main: {"--batchSystem", "--jobStore", "--nodes", "--cores-per-node",
                    "--max-workers"},
        parsl_cwl_main: set(),
    }
    run_options = []
    for main, backend in backend_flags.items():
        assert main(["--help"]) == 0
        flags = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert backend <= flags
        run_options.append(flags - backend)
    assert run_options[0] == run_options[1] == run_options[2]
    assert {"--cachedir", "--retries", "--timeout", "--on-error", "--rundir",
            "--resume"} <= run_options[0]


SCATTERED_ECHO = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "requirements": [{"class": "ScatterFeatureRequirement"}],
    "inputs": {"words": "string[]"},
    "outputs": {"said": {"type": "File[]", "outputSource": "say/said"}},
    "steps": {"say": {
        "run": {"class": "CommandLineTool", "baseCommand": "echo",
                "inputs": {"word": {"type": "string", "inputBinding": {"position": 1}}},
                "outputs": {"said": "stdout"}, "stdout": "said.txt"},
        "scatter": "word", "in": {"word": "words"}, "out": ["said"]}},
}


@pytest.fixture(params=["repro-cwltool", "repro-toil-cwl-runner", "parsl-cwl"])
def run_cli(request, tmp_path, config_dir, monkeypatch):
    """One of the three CLIs, run in ``tmp_path`` with a scattered echo
    workflow and its job file there."""
    monkeypatch.chdir(tmp_path)
    dump_yaml(SCATTERED_ECHO, tmp_path / "scatter.cwl")
    dump_yaml({"words": ["a", "b", "c"]}, tmp_path / "job.yml")

    def run(*options):
        argv = ["--quiet", *options, "scatter.cwl", "job.yml"]
        if request.param == "repro-toil-cwl-runner":
            return toil_main(["--jobStore", str(tmp_path / "jobstore"), *argv])
        if request.param == "parsl-cwl":
            return parsl_cwl_main([str(config_dir / "local_threads.yml"), *argv])
        return cwltool_main(argv)

    return run


def test_each_cli_stages_shards_with_one_basename_apart(run_cli, tmp_path, capsys):
    """Every shard writes `said.txt`: `--outdir` gets `said.txt`,
    `said.txt_2` and `said.txt_3`, each with its own shard's content, and
    nothing else (no job directory)."""
    assert run_cli("--outdir", "out") == 0
    said = json.loads(capsys.readouterr().out)["said"]
    assert [value["basename"] for value in said] == ["said.txt", "said.txt_2", "said.txt_3"]
    assert [value["path"] for value in said] == [
        str(tmp_path / "out" / value["basename"]) for value in said]
    assert [Path(value["path"]).read_text() for value in said] == ["a\n", "b\n", "c\n"]
    assert sorted(os.listdir(tmp_path / "out")) == ["said.txt", "said.txt_2", "said.txt_3"]


def test_each_cli_stages_into_the_working_directory_by_default(run_cli, tmp_path, capsys):
    before = set(os.listdir(tmp_path))
    assert run_cli() == 0
    said = json.loads(capsys.readouterr().out)["said"]
    assert [value["path"] for value in said] == [
        str(tmp_path / name) for name in ("said.txt", "said.txt_2", "said.txt_3")]
    # Parsl's own run directory and the Toil job store are not the run's.
    left = set(os.listdir(tmp_path)) - before - {"runinfo", "jobstore"}
    assert sorted(left) == ["said.txt", "said.txt_2", "said.txt_3"]
