"""Job-cache parity across all four engines.

Cold run → warm run against one store must produce bit-identical output file
contents, with the warm run reporting ``cache_stats["hits"] == jobs_run``;
the store must also be portable *between* engines, and the key must
invalidate on input-content changes, tool-document edits and
``$(runtime.*)`` resource changes.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro import api
from repro.core.cwl_app import CWLApp
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext

ENGINES = ["reference", "toil", "parsl", "parsl-workflow"]


def chain_workflow() -> dict:
    """echo → wc pipeline; literal stdout names keep it bridge-compatible."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string"},
        "outputs": {"final": {"type": "File", "outputSource": "count/out"},
                    "echoed": {"type": "File", "outputSource": "shout/out"}},
        "steps": {
            "shout": {"run": {"class": "CommandLineTool", "baseCommand": "echo",
                              "inputs": {"message": {"type": "string",
                                                     "inputBinding": {"position": 1}}},
                              "outputs": {"out": "stdout"}, "stdout": "shout.txt"},
                      "in": {"message": "message"}, "out": ["out"]},
            "count": {"run": {"class": "CommandLineTool", "baseCommand": ["wc", "-c"],
                              "inputs": {"data": {"type": "File",
                                                  "inputBinding": {"position": 1}}},
                              "outputs": {"out": "stdout"}, "stdout": "count.txt"},
                      "in": {"data": "shout/out"}, "out": ["out"]},
        },
    }


def echo_tool() -> dict:
    return {
        "class": "CommandLineTool", "baseCommand": "echo",
        "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"}, "stdout": "echoed.txt",
    }


def file_bytes(value) -> bytes:
    with open(value["path"], "rb") as handle:
        return handle.read()


def run_once(engine: str, process, order: dict, store, workdir, monkeypatch):
    """One api.run through ``engine`` with the job cache at ``store``."""
    options: dict = {"cache_dir": str(store)}
    if engine in ("reference", "toil"):
        options["runtime_context"] = RuntimeContext(basedir=str(workdir))
    if engine == "toil":
        options["job_store_dir"] = str(workdir / "jobstore")
    if engine.startswith("parsl"):
        run_cwd = workdir / "cwd"
        run_cwd.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(run_cwd)
        options["config"] = repro.thread_config(
            max_threads=2, run_dir=str(run_cwd / "runinfo"))
    workdir.mkdir(parents=True, exist_ok=True)
    return api.run(load_document(dict(process)), dict(order), engine=engine, **options)


@pytest.mark.parametrize("engine", ENGINES)
def test_warm_run_hits_with_bit_identical_outputs(engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    process = echo_tool() if engine == "parsl" else chain_workflow()
    order = {"message": "parity check"}

    cold = run_once(engine, process, order, store, tmp_path / "cold", monkeypatch)
    assert cold.cache_stats["hits"] == 0
    assert cold.cache_stats["misses"] == cold.jobs_run > 0

    warm = run_once(engine, process, order, store, tmp_path / "warm", monkeypatch)
    assert warm.cache_stats["hits"] == warm.jobs_run == cold.jobs_run
    assert warm.cache_stats["misses"] == 0
    assert warm.cache_hits() == warm.jobs_run
    ends = [e for e in warm.events if e.kind == "end"]
    assert ends and all(e.cache == "hit" for e in ends)
    for key in cold.outputs:
        assert file_bytes(warm.outputs[key]) == file_bytes(cold.outputs[key])


@pytest.mark.parametrize("engine", ENGINES)
def test_runner_events_and_no_stats_when_cache_off(engine, tmp_path, monkeypatch):
    process = echo_tool() if engine == "parsl" else chain_workflow()
    result = run_once(engine, process, {"message": "plain"},
                      tmp_path / "unused-store", tmp_path / "wd", monkeypatch)
    # cache_dir was supplied, so stats exist; now verify the *disabled* shape.
    assert result.cache_stats is not None
    options = {"runtime_context": RuntimeContext(basedir=str(tmp_path / "wd2"))} \
        if engine in ("reference", "toil") else {}
    if engine.startswith("parsl"):
        return  # parsl engines without cache options simply report None below
    off = api.run(load_document(dict(process)), {"message": "plain"},
                  engine=engine, **options)
    assert off.cache_stats is None
    assert all(e.cache is None for e in off.events)


def test_store_warmed_by_one_engine_is_warm_for_the_others(tmp_path, monkeypatch):
    store = tmp_path / "store"
    order = {"message": "shared store"}
    cold = run_once("toil", chain_workflow(), order, store, tmp_path / "toil", monkeypatch)
    assert cold.cache_stats == {"hits": 0, "misses": 2}

    for engine in ("reference", "parsl-workflow"):
        warm = run_once(engine, chain_workflow(), order, store,
                        tmp_path / engine, monkeypatch)
        assert warm.cache_stats == {"hits": 2, "misses": 0}, engine
        for key in cold.outputs:
            assert file_bytes(warm.outputs[key]) == file_bytes(cold.outputs[key])


def test_one_key_gets_one_manifest_command_on_every_engine(tmp_path, monkeypatch, cwl_dir):
    """The Parsl path stores what the runners store for a key: the tool's
    canonical command line (so the same ``fingerprint``), its own stream
    names and the whole output directory, a file no output names included."""
    side_file_tool = {
        "class": "CommandLineTool", "id": "side",
        "baseCommand": ["sh", "-c", 'echo "$0" > out.txt; echo noted > side.log'],
        "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"out": {"type": "File", "outputBinding": {"glob": "out.txt"}}}}
    processes = {"echo": load_document(str(cwl_dir / "echo.cwl")).raw, "side": side_file_tool}
    for label, process in processes.items():
        manifests = {}
        for engine in ("reference", "parsl"):
            store = tmp_path / label / engine / "store"
            run_once(engine, process, {"message": "hi"}, store, tmp_path / label / engine,
                     monkeypatch)
            [entry] = os.listdir(store / "entries")
            with open(store / "entries" / entry) as handle:
                manifests[engine] = json.load(handle)
        reference, parsl = manifests["reference"], manifests["parsl"]
        assert parsl["key"] == reference["key"]
        assert parsl["command"] == reference["command"]
        assert parsl["streams"] == reference["streams"]
        assert parsl["files"] == reference["files"]
    assert reference["command"]["argv"][-1] == "hi"
    assert set(reference["files"]) == {"out.txt", "side.log"}
    assert manifests["reference"]["streams"] == {"stdout": None, "stderr": None}


def test_a_hit_on_a_cwl_app_entry_names_files_as_a_run_does(tmp_path, monkeypatch, cwl_dir):
    """A ``CWLApp`` call that redirects stdout to ``mine.txt`` stores the
    tool's own stream name, so a ``reference`` hit on its entry returns the
    file a cold ``reference`` run names, ``capitalized.txt``."""
    tool = str(cwl_dir / "capitalize_js.cwl")
    store = tmp_path / "store"
    app_cwd = tmp_path / "app"
    app_cwd.mkdir()
    monkeypatch.chdir(app_cwd)
    repro.load(repro.thread_config(max_threads=1, run_dir=str(app_cwd / "runinfo")))
    try:
        future = CWLApp(tool, runtime_context=RuntimeContext(cache_dir=str(store)))(
            message="one key", stdout="mine.txt")
        assert future.result() == 0
    finally:
        repro.clear()
    assert len(os.listdir(store / "entries")) == 1  # the miss stored its entry
    assert (app_cwd / "mine.txt").read_text() == "One Key\n"

    order = {"message": "one key"}
    hit = api.run(load_document(tool), order, engine="reference", cache_dir=str(store),
                  runtime_context=RuntimeContext(basedir=str(tmp_path / "hit")))
    cold = api.run(load_document(tool), order, engine="reference",
                   runtime_context=RuntimeContext(basedir=str(tmp_path / "cold")))
    assert hit.cache_stats == {"hits": 1, "misses": 0}
    assert hit.outputs["output"]["basename"] == cold.outputs["output"]["basename"] \
        == "capitalized.txt"
    assert file_bytes(hit.outputs["output"]) == file_bytes(cold.outputs["output"])


def test_per_job_events_carry_hit_and_miss(tmp_path, monkeypatch):
    store = tmp_path / "store"
    run_once("reference", chain_workflow(), {"message": "ev"},
             store, tmp_path / "a", monkeypatch)
    warm = run_once("reference", chain_workflow(), {"message": "ev"},
                    store, tmp_path / "b", monkeypatch)
    ends = [e for e in warm.events if e.kind == "end"]
    assert ends and all(e.cache == "hit" for e in ends)


# ------------------------------------------------------------- invalidation


def cat_tool() -> dict:
    return {
        "class": "CommandLineTool", "baseCommand": "cat",
        "inputs": {"data": {"type": "File", "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"}, "stdout": "copied.txt",
    }


def test_invalidates_when_input_file_content_changes(tmp_path, monkeypatch):
    store = tmp_path / "store"
    data = tmp_path / "data.txt"
    data.write_text("first contents\n")
    order = {"data": {"class": "File", "path": str(data)}}

    first = run_once("toil", cat_tool(), order, store, tmp_path / "r1", monkeypatch)
    assert first.cache_stats == {"hits": 0, "misses": 1}
    data.write_text("second contents\n")
    second = run_once("toil", cat_tool(), order, store, tmp_path / "r2", monkeypatch)
    assert second.cache_stats == {"hits": 0, "misses": 1}
    assert file_bytes(second.outputs["out"]) == b"second contents\n"
    # And the original content hits again when it comes back.
    data.write_text("first contents\n")
    third = run_once("toil", cat_tool(), order, store, tmp_path / "r3", monkeypatch)
    assert third.cache_stats == {"hits": 1, "misses": 0}
    assert file_bytes(third.outputs["out"]) == b"first contents\n"


@pytest.mark.parametrize("engine", ["reference", "parsl"])
def test_invalidates_when_an_input_file_format_changes(engine, tmp_path, monkeypatch):
    """A tool sees a File's ``format``, so the key covers it: a run that
    differs only there misses instead of replaying the other format."""
    store = tmp_path / "store"
    data = tmp_path / "data.txt"
    data.write_text("same bytes\n")
    tool = {"class": "CommandLineTool", "baseCommand": "echo",
            "inputs": {"data": "File"}, "arguments": ["$(inputs.data.format)"],
            "outputs": {"out": "stdout"}, "stdout": "format.txt"}

    def run(format_iri: str, label: str):
        order = {"data": {"class": "File", "path": str(data), "format": format_iri}}
        return run_once(engine, tool, order, store, tmp_path / label, monkeypatch)

    seen = [(result.cache_stats, file_bytes(result.outputs["out"])) for result in (
        run("http://edamontology.org/format_1929", "r1"),
        run("http://edamontology.org/format_1930", "r2"),
        run("http://edamontology.org/format_1929", "r3"))]
    assert seen == [
        ({"hits": 0, "misses": 1}, b"http://edamontology.org/format_1929\n"),
        ({"hits": 0, "misses": 1}, b"http://edamontology.org/format_1930\n"),
        ({"hits": 1, "misses": 0}, b"http://edamontology.org/format_1929\n")]


@pytest.mark.parametrize("engine", ["reference", "parsl"])
def test_invalidates_when_a_secondary_file_content_changes(engine, tmp_path, monkeypatch):
    """A File's ``secondaryFiles`` are keyed by content as the File is: a
    run whose secondary file's bytes changed misses."""
    store = tmp_path / "store"
    data, index = tmp_path / "reads.bam", tmp_path / "reads.bam.bai"
    data.write_text("primary\n")
    tool = {"class": "CommandLineTool", "baseCommand": "cat",
            "inputs": {"data": "File"}, "arguments": ["$(inputs.data.secondaryFiles[0].path)"],
            "outputs": {"out": "stdout"}, "stdout": "index.txt"}
    order = {"data": {"class": "File", "path": str(data),
                      "secondaryFiles": [{"class": "File", "path": str(index)}]}}
    seen = []
    for label, content in (("r1", "first index\n"), ("r2", "second index\n"),
                           ("r3", "first index\n")):
        index.write_text(content)
        result = run_once(engine, tool, order, store, tmp_path / label, monkeypatch)
        seen.append((result.cache_stats, file_bytes(result.outputs["out"])))
    assert seen == [({"hits": 0, "misses": 1}, b"first index\n"),
                    ({"hits": 0, "misses": 1}, b"second index\n"),
                    ({"hits": 1, "misses": 0}, b"first index\n")]


def test_invalidates_when_tool_document_changes(tmp_path, monkeypatch):
    store = tmp_path / "store"
    edited = echo_tool()
    edited["arguments"] = ["-n"]
    first = run_once("toil", echo_tool(), {"message": "doc"},
                     store, tmp_path / "r1", monkeypatch)
    second = run_once("toil", edited, {"message": "doc"},
                      store, tmp_path / "r2", monkeypatch)
    assert first.cache_stats == {"hits": 0, "misses": 1}
    assert second.cache_stats == {"hits": 0, "misses": 1}
    assert file_bytes(first.outputs["out"]) != file_bytes(second.outputs["out"])


def test_invalidates_when_runtime_resources_change(tmp_path, monkeypatch):
    """A tool whose command embeds $(runtime.cores) re-runs when the granted
    resources change — the key covers the runtime object, not just inputs."""
    store = tmp_path / "store"
    tool = {
        "class": "CommandLineTool", "baseCommand": "echo",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
        "arguments": [{"position": 2, "valueFrom": "$(runtime.cores)"}],
        "outputs": {"out": "stdout"}, "stdout": "cores.txt",
    }

    def run(cores: int, label: str):
        return api.run(load_document(dict(tool)), {"message": "res"}, engine="toil",
                       cache_dir=str(store), job_store_dir=str(tmp_path / label / "js"),
                       runtime_context=RuntimeContext(basedir=str(tmp_path / label),
                                                      cores=cores))

    first = run(1, "r1")
    assert first.cache_stats == {"hits": 0, "misses": 1}
    changed = run(4, "r2")
    assert changed.cache_stats == {"hits": 0, "misses": 1}
    assert file_bytes(changed.outputs["out"]) == b"res 4\n"
    again = run(4, "r3")
    assert again.cache_stats == {"hits": 1, "misses": 0}
    assert file_bytes(again.outputs["out"]) == b"res 4\n"
