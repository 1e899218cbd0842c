"""Crash-safe journalled runs and resume (repro.api.resume).

The resume contract: an interrupted journalled run picked back up from its
run directory re-executes **only** the nodes that had not completed —
everything already done replays as a cache hit — and the resumed outputs are
bit-identical to an uninterrupted run.  Interruption is made deterministic
here with an injected fault; the CLI-level SIGTERM variant lives in
``tests/cwl/test_cli_interrupt.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro
from repro import api
from repro.cwl.faults import FaultPlan, FaultSpec
from repro.cwl.journal import journal_path, read_journal
from repro.cwl.runtime import RuntimeContext

CHAIN_DOC = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "inputs": {"message": "string"},
    "outputs": {"final": {"type": "File", "outputSource": "count/out"},
                "echoed": {"type": "File", "outputSource": "shout/out"}},
    "steps": {
        "shout": {"run": {"class": "CommandLineTool", "id": "shout-tool",
                          "baseCommand": "echo",
                          "inputs": {"message": {"type": "string",
                                                 "inputBinding": {"position": 1}}},
                          "outputs": {"out": "stdout"}, "stdout": "shout.txt"},
                  "in": {"message": "message"}, "out": ["out"]},
        "count": {"run": {"class": "CommandLineTool", "id": "count-tool",
                          "baseCommand": ["wc", "-c"],
                          # stdin, not a positional arg: wc must not echo a
                          # scratch path into the output content.
                          "stdin": "$(inputs.data.path)",
                          "inputs": {"data": "File"},
                          "outputs": {"out": "stdout"}, "stdout": "count.txt"},
                  "in": {"data": "shout/out"}, "out": ["out"]},
    },
}

ORDER = {"message": "resume me"}


@pytest.fixture
def chain_doc_path(tmp_path):
    path = tmp_path / "chain.cwl"
    path.write_text(json.dumps(CHAIN_DOC))
    return str(path)


def context_for(workdir):
    os.makedirs(workdir, exist_ok=True)
    return RuntimeContext(basedir=str(workdir))


def output_bytes(result):
    return {key: Path(value["path"]).read_bytes()
            for key, value in result.outputs.items() if value}


def cache_modes(result):
    return {event.job: event.cache for event in result.events
            if event.kind == "end"}


def fail_count_step() -> FaultPlan:
    """A plan that kills the second (downstream) step on every attempt."""
    return FaultPlan(specs=(FaultSpec(job="count-tool", exit_code=13,
                                      attempts=10 ** 6),))


# -------------------------------------------------------------- happy path

def test_journalled_run_records_header_states_and_result(tmp_path,
                                                         chain_doc_path):
    run_dir = str(tmp_path / "run")
    result = api.run(
        chain_doc_path, dict(ORDER), run_dir=run_dir, engine="reference",
        runtime_context=context_for(tmp_path / "wd"))
    assert result.status == "success"
    info = api.resume_info(run_dir)
    assert info["completed"] and info["status"] == "success"
    assert info["process"] == os.path.abspath(chain_doc_path)
    assert info["engine"] == "reference"
    assert info["job_order"] == ORDER
    assert set(info["node_states"]) and \
        all(state == "done" for state in info["node_states"].values())
    assert os.path.isdir(os.path.join(run_dir, "jobcache"))


def test_resume_of_a_completed_run_is_all_hits(tmp_path, chain_doc_path):
    run_dir = str(tmp_path / "run")
    first = api.run(
        chain_doc_path, dict(ORDER), run_dir=run_dir,
        runtime_context=context_for(tmp_path / "wd1"))
    again = api.resume(run_dir, runtime_context=context_for(tmp_path / "wd2"))
    assert again.status == "success"
    assert again.cache_stats == {"hits": 2, "misses": 0}
    assert output_bytes(again) == output_bytes(first)


# ----------------------------------------------- interrupted → resumed run

def test_resume_reexecutes_only_incomplete_nodes(tmp_path, chain_doc_path):
    """The acceptance property, asserted via per-job cache events.

    The first run dies after the upstream step completed (a deterministic
    injected fault stands in for the kill); the resumed run must replay the
    completed step from the run cache (hit) and execute only the incomplete
    one (miss), with outputs bit-identical to a never-interrupted run.
    """
    # What an uninterrupted run produces, for the bit-identical check.
    pristine = api.run(
        chain_doc_path, dict(ORDER), run_dir=str(tmp_path / "pristine"),
        runtime_context=context_for(tmp_path / "wd0"))

    run_dir = str(tmp_path / "run")
    with pytest.raises(Exception):
        api.run(
            chain_doc_path, dict(ORDER), run_dir=run_dir,
            fault_plan=fail_count_step(),
            runtime_context=context_for(tmp_path / "wd1"))

    info = api.resume_info(run_dir)
    assert not info["completed"] or info["status"] == "failed"
    states = info["node_states"]
    assert any(state == "failed" for state in states.values())

    resumed = api.resume(run_dir, runtime_context=context_for(tmp_path / "wd2"))
    assert resumed.status == "success"
    modes = cache_modes(resumed)
    assert modes["shout-tool"] == "hit"    # completed before the interruption
    assert modes["count-tool"] == "miss"   # the only node that re-executed
    assert resumed.cache_stats == {"hits": 1, "misses": 1}
    assert output_bytes(resumed) == output_bytes(pristine)

    # The journal now carries the whole story: a failed result, then success.
    statuses = [record.get("status") for record in read_journal(run_dir)
                if record.get("kind") == "result"]
    assert statuses == ["failed", "success"]


def test_resume_can_switch_engines(tmp_path, chain_doc_path):
    """The run cache is engine-independent, so resume may change engine."""
    run_dir = str(tmp_path / "run")
    with pytest.raises(Exception):
        api.run(
            chain_doc_path, dict(ORDER), run_dir=run_dir,
            fault_plan=fail_count_step(),
            runtime_context=context_for(tmp_path / "wd1"))
    resumed = api.resume(run_dir, engine="toil",
                         runtime_context=context_for(tmp_path / "wd2"),
                         job_store_dir=str(tmp_path / "jobstore"),
                         destroy_job_store_on_close=True)
    assert resumed.engine == "toil"
    assert resumed.status == "success"
    assert cache_modes(resumed)["shout-tool"] == "hit"


# ------------------------------------------------- a crash mid-append

def engine_options(engine, workdir, monkeypatch):
    """Run options for ``engine`` in a fresh working directory (the Parsl
    engines run their tools in the cwd)."""
    os.makedirs(workdir)
    monkeypatch.chdir(workdir)
    if engine == "parsl":
        return {"config": repro.thread_config(max_threads=2,
                                              run_dir=str(workdir / "runinfo"))}
    return {"runtime_context": RuntimeContext(basedir=str(workdir))}


@pytest.mark.parametrize("engine", ["reference", "toil", "parsl"])
def test_resume_after_a_torn_final_record(engine, tmp_path, chain_doc_path,
                                          monkeypatch):
    """A crash mid-append leaves a torn final journal record.  Resume used to
    append its header onto the fragment, after which every read of the
    journal raised ``corrupt journal record``."""
    run_dir = str(tmp_path / "run")
    first = api.run(chain_doc_path, dict(ORDER), run_dir=run_dir, engine=engine,
                    **engine_options(engine, tmp_path / "wd1", monkeypatch))
    expected = output_bytes(first)
    with open(journal_path(run_dir), "a", encoding="utf-8") as handle:
        handle.write('{"kind": "node", "node": "co')

    resumed = api.resume(run_dir, **engine_options(engine, tmp_path / "wd2", monkeypatch))
    assert resumed.status == "success"
    assert output_bytes(resumed) == expected
    info = api.resume_info(run_dir)
    assert info["completed"] and info["status"] == "success"
    again = api.resume(run_dir, **engine_options(engine, tmp_path / "wd3", monkeypatch))
    assert again.cache_stats == {"hits": 2, "misses": 0}
    assert output_bytes(again) == expected
    assert [record["status"] for record in read_journal(run_dir)
            if record["kind"] == "result"] == ["success"] * 3


def test_every_engine_journals_the_same_job_records(tmp_path, chain_doc_path,
                                                    monkeypatch):
    """One ``job`` record per executed or replayed job, with its cache outcome,
    key and exit code: the Parsl path writes what ``CommandLineJob`` writes."""
    jobs = {}
    for engine in ("reference", "toil", "parsl"):
        run_dir = str(tmp_path / engine / "run")
        for attempt in ("cold", "warm"):
            api.run(chain_doc_path, dict(ORDER), run_dir=run_dir, engine=engine,
                    **engine_options(engine, tmp_path / engine / attempt, monkeypatch))
        jobs[engine] = [(record["tool"], record["key"], record["cache"],
                         record["exit_code"])
                        for record in read_journal(run_dir) if record["kind"] == "job"]
    assert [cache for _tool, _key, cache, _code in jobs["reference"]] == \
        ["miss", "miss", "hit", "hit"]
    assert jobs["toil"] == jobs["parsl"] == jobs["reference"]


# ------------------------------------------------------------------ refusals

def test_resume_refuses_a_changed_document(tmp_path, chain_doc_path):
    run_dir = str(tmp_path / "run")
    api.run(chain_doc_path, dict(ORDER), run_dir=run_dir,
            runtime_context=context_for(tmp_path / "wd"))
    with open(chain_doc_path, "a") as handle:
        handle.write("\n")
    with pytest.raises(ValueError, match="fingerprint"):
        api.resume(run_dir)


def test_resume_refuses_a_missing_document(tmp_path, chain_doc_path):
    run_dir = str(tmp_path / "run")
    api.run(chain_doc_path, dict(ORDER), run_dir=run_dir,
            runtime_context=context_for(tmp_path / "wd"))
    os.unlink(chain_doc_path)
    with pytest.raises(FileNotFoundError):
        api.resume(run_dir)
