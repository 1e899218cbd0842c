"""Each fact about a run is recorded once, by one writer, on every engine.

The result's plan is the graph the run executed (built once, not rebuilt for
the result), and in a journalled run the journal's ``retry`` and ``job``
records are written with the matching job events.  Counts, not clocks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro
from repro import api
from repro.cwl.faults import get_fault_profile
from repro.cwl.graph import GraphBuilder
from repro.cwl.jobcache import get_job_cache
from repro.cwl.journal import read_journal
from repro.cwl.runtime import RuntimeContext
from repro.testing.corpus import load_case

REPO_ROOT = Path(__file__).resolve().parents[2]
ENGINES = ("reference", "toil", "parsl")


def echo_tool(tool_id: str) -> dict:
    return {"class": "CommandLineTool", "id": tool_id, "baseCommand": "echo",
            "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
            "outputs": {"out": "stdout"}, "stdout": f"{tool_id}.txt"}


#: A scatter beside a two-step chain: five jobs, three waves of nodes.
DOC = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "requirements": [{"class": "ScatterFeatureRequirement"}],
    "inputs": {"message": "string", "words": "string[]"},
    "outputs": {"each": {"type": "File[]", "outputSource": "each/out"},
                "final": {"type": "File", "outputSource": "count/out"}},
    "steps": {
        "each": {"run": echo_tool("each-tool"), "scatter": "message",
                 "in": {"message": "words"}, "out": ["out"]},
        "shout": {"run": echo_tool("shout-tool"), "in": {"message": "message"},
                  "out": ["out"]},
        "count": {"run": {"class": "CommandLineTool", "id": "count-tool",
                          "baseCommand": ["wc", "-c"], "stdin": "$(inputs.data.path)",
                          "inputs": {"data": "File"},
                          "outputs": {"out": "stdout"}, "stdout": "count.txt"},
                  "in": {"data": "shout/out"}, "out": ["out"]},
    },
}
ORDER = {"message": "once", "words": ["a", "b", "c"]}


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "facts.cwl"
    path.write_text(json.dumps(DOC))
    return str(path)


def contents(files) -> list:
    """What each File of an output array holds: the three `each` shards
    write the same `each-tool.txt`, and each must keep its own."""
    return [Path(value["path"]).read_text() for value in files]


def engine_options(engine, workdir, monkeypatch):
    """Backend options for ``engine`` in a fresh working directory (the Parsl
    engine runs its tools in the cwd)."""
    os.makedirs(workdir)
    monkeypatch.chdir(workdir)
    if engine == "parsl":
        return {"config": repro.thread_config(max_threads=2,
                                              run_dir=str(workdir / "runinfo"))}
    return {"runtime_context": RuntimeContext(basedir=str(workdir))}


@pytest.mark.parametrize("engine", ENGINES)
def test_a_workflow_run_builds_its_graph_once_and_reports_it_as_its_plan(
        engine, doc_path, tmp_path, monkeypatch):
    builds = []  # GraphBuilder.finish ends every build_graph call
    real_finish = GraphBuilder.finish

    def finish(builder):
        builds.append(builder)
        return real_finish(builder)

    monkeypatch.setattr(GraphBuilder, "finish", finish)
    with api.Session(engine, **engine_options(engine, tmp_path / "wd", monkeypatch)) \
            as session:
        result = session.run(doc_path, dict(ORDER))
    assert len(builds) == 1

    planned = api.plan(doc_path)
    assert result.plan["nodes"] == planned.nodes
    assert result.plan["edges"] == planned.edges
    assert result.plan["critical_path"] == planned.critical_path
    assert result.jobs_run == 5
    assert contents(result.outputs["each"]) == ["a\n", "b\n", "c\n"]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_journalled_run_records_each_retry_and_each_job_once(
        engine, doc_path, tmp_path, monkeypatch):
    """Under ``transient-all`` every job fails its first attempt: one journal
    ``retry`` record per ``retry`` event (same job, same attempt, same
    order) and one ``job`` record per successful job."""
    profile = get_fault_profile("transient-all")
    run_dir = str(tmp_path / "run")
    result = api.run(doc_path, dict(ORDER), engine=engine, run_dir=run_dir,
                     fault_plan=profile.make_plan(), retry_policy=profile.policy,
                     **engine_options(engine, tmp_path / "wd", monkeypatch))
    records = read_journal(run_dir)

    retry_events = [(e.job, e.attempt) for e in result.events if e.kind == "retry"]
    assert retry_events and len(retry_events) == result.jobs_run == 5
    assert [(r["job"], r["attempt"]) for r in records if r["kind"] == "retry"] == \
        retry_events

    jobs = [r for r in records if r["kind"] == "job"]
    ended = [e for e in result.events if e.kind == "end" and e.ok]
    assert len(jobs) == len(ended) == 5
    assert sorted(r["tool"] for r in jobs) == \
        ["count-tool", "each-tool", "each-tool", "each-tool", "shout-tool"]
    assert {(r["cache"], r["exit_code"]) for r in jobs} == {("miss", 0)}
    assert len({r["key"] for r in jobs}) == 5
    assert contents(result.outputs["each"]) == ["a\n", "b\n", "c\n"]


def test_a_permitted_nonzero_exit_is_recorded_as_the_tool_exited_on_every_engine(
        tmp_path, monkeypatch):
    """``success_codes_nonzero`` exits 3 under ``successCodes: [0, 3]``: each
    engine's journal ``job`` record and cache manifest carry 3, under one
    key, and a runner hitting the entry the Parsl engine stored reports 3."""
    case = load_case(REPO_ROOT / "conformance" / "corpus" / "success_codes_nonzero.yaml")
    document = tmp_path / "nonzero.cwl"
    document.write_text(json.dumps(dict(case.process, cwlVersion="v1.2")))

    def job_record(engine, run_dir, **options):
        api.run(str(document), {}, engine=engine, run_dir=str(run_dir),
                **engine_options(engine, tmp_path / f"{run_dir.name}-wd", monkeypatch),
                **options)
        (job,) = [r for r in read_journal(str(run_dir)) if r["kind"] == "job"]
        return job

    records = {engine: job_record(engine, tmp_path / engine) for engine in ENGINES}
    assert {engine: (r["cache"], r["exit_code"]) for engine, r in records.items()} == \
        {engine: ("miss", 3) for engine in ENGINES}
    (key,) = {r["key"] for r in records.values()}
    stores = {engine: get_job_cache(str(tmp_path / engine / "jobcache")) for engine in ENGINES}
    assert {engine: store.lookup(key).exit_code for engine, store in stores.items()} == \
        {engine: 3 for engine in ENGINES}
    warm = job_record("reference", tmp_path / "warm",
                      cache_dir=str(tmp_path / "parsl" / "jobcache"))
    assert (warm["cache"], warm["exit_code"], warm["key"]) == ("hit", 3, key)
