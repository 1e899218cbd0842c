"""A run's output files land in its ``outdir``, on every engine.

Every engine runs each job in ``<run root>/<node path>``, under a root the
run makes (in ``basedir``, else the temp dir).  With an ``outdir``, the run
stages its output object there once, as ``cwltool --outdir`` does, and then
removes the root: ``outdir`` holds the outputs and whatever was already in
it, nothing else.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro import api
from repro.core.runner import run_tool_with_parsl
from repro.core.workflow_bridge import CWLWorkflowBridge
from repro.cwl.job import CommandLineJob
from repro.cwl.loader import load_document
from repro.cwl.retry import RetryPolicy
from repro.cwl.runtime import RuntimeContext
from repro.cwl.workflow import WorkflowEngine

ENGINES = ["reference", "toil", "parsl", "parsl-workflow"]


def options_for(engine: str, tmp_path) -> dict:
    options = {"basedir": str(tmp_path / "jobs")}
    if engine == "toil":
        options["job_store_dir"] = str(tmp_path / "jobstore")
    if engine.startswith("parsl"):
        options["config"] = repro.thread_config(max_threads=2,
                                                run_dir=str(tmp_path / "runinfo"))
    return options


def runnable(engine: str, tool: dict) -> dict:
    """``tool``, as the one step of a workflow on ``parsl-workflow``."""
    if engine != "parsl-workflow":
        return dict(tool, cwlVersion="v1.2")
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {name: spec["type"] for name, spec in tool["inputs"].items()},
        "outputs": {name: {"type": "File", "outputSource": f"only/{name}"}
                    for name in tool["outputs"]},
        "steps": {"only": {"run": tool, "in": {name: name for name in tool["inputs"]},
                           "out": list(tool["outputs"])}},
    }


ECHO = {
    "class": "CommandLineTool", "baseCommand": "echo",
    "inputs": {"word": {"type": "string", "inputBinding": {"position": 1}}},
    "outputs": {"said": "stdout"}, "stdout": "said.txt",
}

SCATTERED_ECHO = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "requirements": [{"class": "ScatterFeatureRequirement"}],
    "inputs": {"words": "string[]"},
    "outputs": {"said": {"type": "File[]", "outputSource": "say/said"}},
    "steps": {"say": {"run": ECHO, "scatter": "word", "in": {"word": "words"},
                      "out": ["said"]}},
}


def read(value) -> str:
    with open(value["path"], encoding="utf-8") as handle:
        return handle.read()


def with_canary(directory) -> str:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "canary.txt").write_text("canary\n")
    return str(directory)


def assert_only_outputs_and_canary(engine: str, tmp_path, outdir, names) -> None:
    assert sorted(os.listdir(outdir)) == sorted(["canary.txt", *names])
    assert (tmp_path / engine / "out" / "canary.txt").read_text() == "canary\n"
    jobs = tmp_path / engine / "jobs"
    assert not jobs.exists() or os.listdir(jobs) == [], "the run root was left behind"


@pytest.mark.parametrize("engine", ENGINES)
def test_a_tool_run_leaves_exactly_its_output_files_in_outdir(engine, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reference = api.run(runnable("reference", ECHO), {"word": "hi"}, engine="reference")
    outdir = with_canary(tmp_path / engine / "out")
    result = api.run(runnable(engine, ECHO), {"word": "hi"}, engine=engine, outdir=outdir,
                     **options_for(engine, tmp_path / engine))
    said = result.outputs["said"]
    assert said["path"] == os.path.join(outdir, "said.txt")
    assert said["basename"] == "said.txt"
    assert read(said) == read(reference.outputs["said"]) == "hi\n"
    assert_only_outputs_and_canary(engine, tmp_path, outdir, ["said.txt"])
    assert not (tmp_path / "said.txt").exists(), "a job's file was put in the cwd"


@pytest.mark.parametrize("engine", ENGINES)
def test_shards_staged_with_one_basename_keep_their_own_files(engine, tmp_path, monkeypatch):
    """Three shards all write ``said.txt``: staged as ``said.txt``,
    ``said.txt_2`` and ``said.txt_3`` (cwltool's rule), in shard order,
    each with its own shard's content."""
    monkeypatch.chdir(tmp_path)
    outdir = with_canary(tmp_path / engine / "out")
    result = api.run(SCATTERED_ECHO, {"words": ["a", "b", "c"]}, engine=engine,
                     outdir=outdir, **options_for(engine, tmp_path / engine))
    said = result.outputs["said"]
    assert [value["basename"] for value in said] == ["said.txt", "said.txt_2", "said.txt_3"]
    assert [value["path"] for value in said] == [
        os.path.join(outdir, value["basename"]) for value in said]
    assert [read(value) for value in said] == ["a\n", "b\n", "c\n"]
    assert_only_outputs_and_canary(engine, tmp_path, outdir,
                                   ["said.txt", "said.txt_2", "said.txt_3"])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_retried_job_leaves_the_outdir_canary_alone(engine, tmp_path, monkeypatch):
    """The first attempt fails after writing a file; the retry runs in the
    same job directory, emptied, and never in ``outdir``."""
    monkeypatch.chdir(tmp_path)
    flaky = {
        "class": "CommandLineTool",
        "baseCommand": ["sh", "-c",
                        'echo x >> "$0"; echo partial > partial.txt; '
                        'test "$(wc -l < "$0")" -ge 2 && echo done > done.txt',
                        ],
        "inputs": {"counter": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"done": {"type": "File", "outputBinding": {"glob": "done.txt"}}},
    }
    outdir = with_canary(tmp_path / engine / "out")
    counter = str(tmp_path / "attempts")
    result = api.run(runnable(engine, flaky), {"counter": counter}, engine=engine,
                     outdir=outdir, retry_policy=RetryPolicy(
                         max_attempts=2, backoff_s=0.0, retryable_exit_codes=(1,)),
                     **options_for(engine, tmp_path / engine))
    with open(counter, encoding="utf-8") as handle:
        assert handle.read() == "x\nx\n"
    assert read(result.outputs["done"]) == "done\n"
    assert_only_outputs_and_canary(engine, tmp_path, outdir, ["done.txt"])


@pytest.mark.parametrize("engine", ENGINES)
def test_without_outdir_the_outputs_stay_in_the_run_root(engine, tmp_path, monkeypatch):
    """Each job runs at ``<root>/<node path>``, and its outputs stay there
    after the session closes."""
    monkeypatch.chdir(tmp_path)
    options = options_for(engine, tmp_path)
    with api.Session(engine, **options) as session:
        result = session.run(SCATTERED_ECHO, {"words": ["a", "b"]})
    paths = [value["path"] for value in result.outputs["said"]]
    [root] = os.listdir(tmp_path / "jobs")
    assert root.startswith("cwl-run-")
    assert [os.path.relpath(path, tmp_path / "jobs" / root) for path in paths] == [
        os.path.join("say", "0", "said.txt"), os.path.join("say", "1", "said.txt")]
    assert [read(value) for value in result.outputs["said"]] == ["a\n", "b\n"]
    assert not (tmp_path / "said.txt").exists()


def test_run_tool_with_parsl_stages_into_the_outdir_it_is_given(tmp_path, monkeypatch):
    """Called directly with an ``outdir`` that already holds a file, the tool
    runs in a root of its own and its output is staged beside that file."""
    monkeypatch.chdir(tmp_path)
    outdir = with_canary(tmp_path / "direct" / "out")
    outputs = run_tool_with_parsl(
        load_document(dict(ECHO, cwlVersion="v1.2")), {"word": "hi"},
        config=repro.thread_config(max_threads=1, run_dir=str(tmp_path / "runinfo")),
        runtime_context=RuntimeContext(outdir=outdir, basedir=str(tmp_path / "direct" / "jobs")))
    assert outputs["said"]["path"] == os.path.join(outdir, "said.txt")
    assert read(outputs["said"]) == "hi\n"
    assert_only_outputs_and_canary("direct", tmp_path, outdir, ["said.txt"])
    assert not (tmp_path / "said.txt").exists()


def run_directly(kind: str, context: RuntimeContext, tmp_path) -> dict:
    """SCATTERED_ECHO on a directly built ``WorkflowEngine`` or bridge."""
    workflow = load_document(SCATTERED_ECHO)
    order = {"words": ["a", "b", "c"]}
    if kind == "WorkflowEngine":
        def run_job(process, job, job_context):
            return CommandLineJob(tool=process, job_order=job,
                                  runtime_context=job_context).execute().outputs

        return WorkflowEngine(workflow, run_job, runtime_context=context).run(order)
    repro.load(repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")))
    try:
        return CWLWorkflowBridge(workflow, runtime_context=context).run(order)
    finally:
        repro.clear()


@pytest.mark.parametrize("kind", ["WorkflowEngine", "CWLWorkflowBridge"])
def test_a_directly_built_workflow_run_stages_into_its_outdir(kind, tmp_path, monkeypatch):
    """Built without an engine, a workflow run still runs its jobs under a
    root of its own, stages into ``outdir`` and removes the root."""
    monkeypatch.chdir(tmp_path)
    outdir = with_canary(tmp_path / kind / "out")
    outputs = run_directly(kind, RuntimeContext(
        outdir=outdir, basedir=str(tmp_path / kind / "jobs")), tmp_path)
    assert [value["path"] for value in outputs["said"]] == [
        os.path.join(outdir, name) for name in ("said.txt", "said.txt_2", "said.txt_3")]
    assert [read(value) for value in outputs["said"]] == ["a\n", "b\n", "c\n"]
    assert_only_outputs_and_canary(kind, tmp_path, outdir,
                                   ["said.txt", "said.txt_2", "said.txt_3"])
