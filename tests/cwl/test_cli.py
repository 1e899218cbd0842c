"""Tests for the repro-cwltool, repro-toil-cwl-runner and parsl-cwl CLIs."""

from __future__ import annotations

import json
import re

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
