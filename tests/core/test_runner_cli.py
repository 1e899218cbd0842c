"""Tests for run_tool_with_parsl and the parsl-cwl CLI (paper §III-B)."""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.core.cli import main as parsl_cwl_main
from repro.core.runner import run_tool_with_parsl
from repro.cwl.errors import exit_class, unwrap_failure
from repro.cwl.journal import read_journal
from repro.cwl.loader import load_document
from repro.cwl.retry import RetryPolicy
from repro.cwl.runtime import RuntimeContext
from repro.parsl.dataflow.dflow import DataFlowKernelLoader
from repro.parsl.errors import NoDataFlowKernelError
from repro.utils.yamlio import dump_yaml


def test_run_tool_with_explicit_config(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = run_tool_with_parsl(
        tool=str(cwl_dir / "echo.cwl"),
        job_order={"message": "configured run"},
        config=repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")),
    )
    assert outputs["output"]["basename"] == "hello.txt"
    with open(outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "configured run"
    # The runner loaded the DFK itself, so it must also have cleaned it up.
    with pytest.raises(NoDataFlowKernelError):
        DataFlowKernelLoader.dfk()


def test_run_tool_with_yaml_config_path(cwl_dir, config_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = run_tool_with_parsl(
        tool=str(cwl_dir / "echo.cwl"),
        job_order={"message": "yaml config"},
        config=str(config_dir / "local_threads.yml"),
    )
    with open(outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "yaml config"


def test_run_tool_reuses_existing_dfk(cwl_dir, parsl_threads, tmp_path):
    outputs = run_tool_with_parsl(
        tool=str(cwl_dir / "echo.cwl"),
        job_order={"message": "reuse"},
    )
    assert outputs["output"]["basename"] == "hello.txt"
    # The pre-existing kernel must still be loaded afterwards.
    assert DataFlowKernelLoader.dfk() is parsl_threads


def test_run_tool_with_file_input(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "words.txt"
    data.write_text("one two three\n")
    outputs = run_tool_with_parsl(
        tool=str(cwl_dir / "wordcount.cwl"),
        job_order={"text_file": {"class": "File", "path": str(data)}},
        config=repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")),
    )
    with open(outputs["count"]["path"]) as handle:
        assert handle.read().split()[0] == "3"


def test_run_tool_retries_under_the_context_policy(tmp_path, monkeypatch):
    """A direct call honours the context's ``retry_policy``: a tool that exits
    3 under ``max_attempts=3`` runs three times, not once."""
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "executions.log"
    tool = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", f"echo ran >> {log}; exit 3"],
        "inputs": {}, "outputs": {}})
    policy = RetryPolicy(max_attempts=3, backoff_s=0, retryable_exit_codes=(3,))
    with pytest.raises(Exception) as excinfo:
        run_tool_with_parsl(
            tool, config=repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")),
            runtime_context=RuntimeContext(retry_policy=policy))
    assert exit_class(unwrap_failure(excinfo.value)) == "permanentFail"
    assert log.read_text() == "ran\n" * 3


def thread_config(tmp_path):
    return repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo"))


def test_run_tool_journals_under_run_dir_like_the_parsl_engine(cwl_dir, tmp_path, monkeypatch):
    """A direct call is the ``parsl`` engine's tool run: under ``run_dir`` it
    journals its job, and a second call hits the cache under the same key."""
    monkeypatch.chdir(tmp_path)

    def job_record(run_dir):
        run_tool_with_parsl(
            str(cwl_dir / "echo.cwl"), {"message": "journalled"}, config=thread_config(tmp_path),
            runtime_context=RuntimeContext(run_dir=str(run_dir), cache_dir=str(tmp_path / "store"),
                                           basedir=str(tmp_path / "jobs")))
        (job,) = [r for r in read_journal(str(run_dir)) if r["kind"] == "job"]
        return job

    cold = job_record(tmp_path / "cold")
    warm = job_record(tmp_path / "warm")
    assert (cold["cache"], warm["cache"]) == ("miss", "hit")
    assert cold["key"] is not None and warm["key"] == cold["key"]


def test_run_tool_keeps_outputs_in_its_run_root_unless_given_an_outdir(
        cwl_dir, tmp_path, monkeypatch):
    """As on every engine: without ``outdir`` the outputs stay in the run's
    ``cwl-run-*`` root; with one they are staged there and the root removed.
    Neither run delivers anything into the working directory."""
    monkeypatch.chdir(tmp_path)

    def run(message, **options):
        return run_tool_with_parsl(
            str(cwl_dir / "echo.cwl"), {"message": message}, config=thread_config(tmp_path),
            runtime_context=RuntimeContext(basedir=str(tmp_path / "jobs"), **options))

    rooted = run("rooted")["output"]["path"]
    [root] = os.listdir(tmp_path / "jobs")
    assert root.startswith("cwl-run-")
    assert os.path.dirname(os.path.dirname(rooted)) == str(tmp_path / "jobs" / root)
    with open(rooted) as handle:
        assert handle.read() == "rooted\n"

    staged = run("staged", outdir=str(tmp_path / "out"))["output"]["path"]
    assert staged == str(tmp_path / "out" / "hello.txt")
    assert (tmp_path / "out" / "hello.txt").read_text() == "staged\n"
    assert os.listdir(tmp_path / "out") == ["hello.txt"]
    assert os.listdir(tmp_path / "jobs") == [root]
    assert sorted(os.listdir(tmp_path)) == ["jobs", "out", "runinfo"]


def test_parsl_cwl_cli_with_flag_inputs(cwl_dir, config_dir, tmp_path, capsys):
    exit_code = parsl_cwl_main([
        "--outdir", str(tmp_path), "--quiet",
        str(config_dir / "local_threads.yml"),
        str(cwl_dir / "echo.cwl"),
        "--message", "cli run",
    ])
    assert exit_code == 0
    outputs = json.loads(capsys.readouterr().out)
    assert outputs["output"]["basename"] == "hello.txt"
    assert (tmp_path / "hello.txt").read_text().strip() == "cli run"


def test_parsl_cwl_cli_with_job_order_file(cwl_dir, config_dir, tmp_path, capsys):
    job_file = tmp_path / "inputs.yml"
    job_file.write_text(dump_yaml({"message": "from inputs.yml"}))
    exit_code = parsl_cwl_main([
        "--outdir", str(tmp_path / "out"), "--quiet",
        str(config_dir / "local_threads.yml"),
        str(cwl_dir / "echo.cwl"),
        str(job_file),
    ])
    assert exit_code == 0
    assert (tmp_path / "out" / "hello.txt").read_text().strip() == "from inputs.yml"


def test_parsl_cwl_cli_resolves_only_file_inputs(cwl_dir, config_dir, tmp_path,
                                                 monkeypatch, capsys):
    """A relative path is made absolute only for an input the tool declares
    as ``File``: a ``string`` input naming an existing file is passed on as
    the user typed it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notes.txt").write_text("one two three four\n")
    config = str(config_dir / "local_threads.yml")

    assert parsl_cwl_main(["--outdir", "said", "--quiet", config,
                           str(cwl_dir / "echo.cwl"), "--message", "notes.txt"]) == 0
    assert (tmp_path / "said" / "hello.txt").read_text() == "notes.txt\n"

    assert parsl_cwl_main(["--outdir", "counted", "--quiet", config,
                           str(cwl_dir / "wordcount.cwl"), "--text_file", "notes.txt"]) == 0
    assert (tmp_path / "counted" / "count.txt").read_text().split()[0] == "4"
    capsys.readouterr()


def test_parsl_cwl_cli_runs_an_expression_tool_like_repro_cwltool(config_dir, tmp_path,
                                                                   capsys):
    """An ExpressionTool document is a process ``parsl-cwl`` runs, evaluated
    inline as ``repro-cwltool`` evaluates it: the same output object."""
    from repro.cwl.cli import cwltool_main

    document = tmp_path / "double.cwl"
    document.write_text(dump_yaml({
        "cwlVersion": "v1.2", "class": "ExpressionTool",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"n": "int"}, "outputs": {"m": "int"},
        "expression": "${ return {m: inputs.n * 2}; }"}))
    argv = ["--outdir", str(tmp_path / "out"), "--quiet", str(document), "--n", "21"]
    printed = []
    for main in (cwltool_main, parsl_cwl_main):
        config = [str(config_dir / "local_threads.yml")] if main is parsl_cwl_main else []
        assert main([*config, *argv]) == 0
        printed.append(json.loads(capsys.readouterr().out))
    assert printed == [{"m": 42}, {"m": 42}]


def test_parsl_cwl_cli_usage_error(capsys):
    assert parsl_cwl_main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_parsl_cwl_cli_reports_failures(cwl_dir, config_dir, tmp_path, capsys):
    exit_code = parsl_cwl_main([
        "--outdir", str(tmp_path), "--quiet",
        str(config_dir / "local_threads.yml"),
        str(cwl_dir / "resize_image.cwl"),          # missing required inputs
    ])
    assert exit_code == 1
    assert "error" in capsys.readouterr().err


def test_parsl_cwl_cli_reports_malformed_document_like_the_other_clis(
        config_dir, tmp_path, capsys):
    broken = tmp_path / "broken.cwl"
    broken.write_text("class: CommandLineTool\ninputs: [a, b\nbaseCommand: echo\n")
    exit_code = parsl_cwl_main(["--outdir", str(tmp_path / "out"), "--quiet",
                                str(config_dir / "local_threads.yml"), str(broken)])
    assert exit_code == 1
    assert capsys.readouterr().err.strip() == \
        f"parsl-cwl: error: {broken}:3:12: invalid YAML (ParserError)"
