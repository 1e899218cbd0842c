"""What a job-cache hit costs, as counts — no clocks.

A hit jumps from staging to collection, so it must allocate nothing for the
segment it skips: no subprocess, no scratch directory, no command line, no
job-description rewrite.  These tests hold all four engines to that on a
chain + fan-in workflow and on a stdout-less tool with a declared output
file, and pin the prerequisite that makes hits happen at all: a job key is a
function of input *values*, not of which inputs share an object.
"""

from __future__ import annotations

import functools
import os
import subprocess

import pytest

import repro
from repro import api
from repro.core.cwl_app import (
    CWLApp,
    cached_bash_executor,
    cwl_tool_command,
    resilient_bash_executor,
)
from repro.cwl.errors import InjectedFault
from repro.cwl.faults import get_fault_profile
from repro.cwl.job import CommandLineJob
from repro.cwl.loader import load_document
from repro.cwl.runners.toil.jobstore import FileJobStore
from repro.cwl.runtime import RuntimeContext
from repro.parsl.data_provider.files import File
from repro.parsl.errors import MissingOutputs

ENGINES = ["reference", "toil", "parsl", "parsl-workflow"]
RUNNERS = ("reference", "toil")


# ------------------------------------------------------------------ processes

def cat_tool(arity: int, stdout: str) -> dict:
    return {
        "class": "CommandLineTool", "baseCommand": "cat",
        "inputs": {f"f{i}": {"type": "File", "inputBinding": {"position": i + 1}}
                   for i in range(arity)},
        "outputs": {"out": "stdout"}, "stdout": stdout,
    }


def chain_fan_in_workflow() -> dict:
    """shout → copy, then join reads both: a chain and a fan-in, 3 jobs."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string"},
        "outputs": {"joined": {"type": "File", "outputSource": "join/out"},
                    "copied": {"type": "File", "outputSource": "copy/out"}},
        "steps": {
            "shout": {"run": {"class": "CommandLineTool", "baseCommand": "echo",
                              "inputs": {"message": {"type": "string",
                                                     "inputBinding": {"position": 1}}},
                              "outputs": {"out": "stdout"}, "stdout": "shout.txt"},
                      "in": {"message": "message"}, "out": ["out"]},
            "copy": {"run": cat_tool(1, "copy.txt"),
                     "in": {"f0": "shout/out"}, "out": ["out"]},
            "join": {"run": cat_tool(2, "join.txt"),
                     "in": {"f0": "shout/out", "f1": "copy/out"}, "out": ["out"]},
        },
    }


def made_tool() -> dict:
    """No stdout/stderr redirection; one declared output file."""
    return {
        "class": "CommandLineTool",
        "baseCommand": ["bash", "-c", "echo made > made.txt"],
        "inputs": {},
        "outputs": {"made": {"type": "File", "outputBinding": {"glob": "made.txt"}}},
    }


def one_step_workflow(tool: dict, inputs: dict) -> dict:
    """``tool`` as the only step (``parsl-workflow`` runs Workflows only)."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {name: spec["type"] for name, spec in inputs.items()},
        "outputs": {name: {"type": "File", "outputSource": f"only/{name}"}
                    for name in tool["outputs"]},
        "steps": {"only": {"run": tool, "in": {name: name for name in inputs},
                           "out": list(tool["outputs"])}},
    }


def file_bytes(value) -> bytes:
    with open(value["path"], "rb") as handle:
        return handle.read()


def session_for(engine: str, store, workdir, monkeypatch, **options) -> api.Session:
    workdir.mkdir(parents=True, exist_ok=True)
    context = RuntimeContext(tmpdir_prefix=str(workdir / "scratch" / "cwl-tmp-"))
    options["cache_dir"] = str(store)
    if engine in RUNNERS:
        context = context.child(basedir=str(workdir / "jobs"))
    if engine == "toil":
        options["job_store_dir"] = str(workdir / "jobstore")
    if engine.startswith("parsl"):
        monkeypatch.chdir(workdir)
        options["config"] = repro.thread_config(
            max_threads=2, run_dir=str(workdir / "runinfo"))
    return api.Session(engine=engine, runtime_context=context, **options)


# --------------------------------------------------------------- the counters

class Counted:
    """Popen constructions, make_tmpdir calls and successful mkdirs."""

    def __init__(self, monkeypatch) -> None:
        self.spawns = 0
        self.tmpdirs = 0
        self.mkdirs: list = []
        real_popen_init = subprocess.Popen.__init__
        real_make_tmpdir = RuntimeContext.make_tmpdir
        real_mkdir = os.mkdir

        def popen_init(popen, *args, **kwargs):
            self.spawns += 1
            real_popen_init(popen, *args, **kwargs)

        def make_tmpdir(context):
            self.tmpdirs += 1
            return real_make_tmpdir(context)

        def mkdir(path, *args, **kwargs):
            real_mkdir(path, *args, **kwargs)
            self.mkdirs.append(os.path.abspath(os.fspath(path)))

        monkeypatch.setattr(subprocess.Popen, "__init__", popen_init)
        monkeypatch.setattr(RuntimeContext, "make_tmpdir", make_tmpdir)
        monkeypatch.setattr(os, "mkdir", mkdir)

    def job_dirs(self) -> list:
        return [path for path in self.mkdirs if os.path.basename(path).startswith("cwl-")]


def cases_for(engine: str):
    made = made_tool()
    if engine == "parsl-workflow":
        made = one_step_workflow(made, {})
    return [("workflow", chain_fan_in_workflow(), {"message": "warm path"}, 3),
            ("tool", made, {}, 1)]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_hit_spawns_nothing_and_makes_only_its_output_directory(
        engine, tmp_path, monkeypatch):
    for label, process, order, jobs in cases_for(engine):
        store = tmp_path / label / "store"
        with session_for(engine, store, tmp_path / label / "cold", monkeypatch) as session:
            cold = session.run(load_document(dict(process)), dict(order))
        assert cold.jobs_run == jobs
        assert cold.cache_stats == {"hits": 0, "misses": jobs}

        warm_dir = tmp_path / label / "warm"
        with monkeypatch.context() as patched:
            counted = Counted(patched)
            with session_for(engine, store, warm_dir, patched) as session:
                warm = session.run(load_document(dict(process)), dict(order))

        assert warm.jobs_run == jobs
        assert warm.cache_stats == {"hits": jobs, "misses": 0}
        ends = [event for event in warm.events if event.kind == "end"]
        assert len(ends) == jobs and all(event.cache == "hit" for event in ends)
        assert counted.spawns == 0, f"{label}: a hit spawned a process"
        assert counted.tmpdirs == 0, f"{label}: a hit made a scratch directory"
        # One root per run and, under it, one directory per job: its node's
        # (a tool run's is named after the tool), where the hit is restored.
        [root] = counted.job_dirs()
        assert os.path.basename(root).startswith("cwl-run-"), counted.mkdirs
        below = [path for path in counted.mkdirs if path.startswith(root + os.sep)]
        assert len(below) == jobs, counted.mkdirs
        assert not (warm_dir / "scratch").exists()
        assert set(warm.outputs) == set(cold.outputs)
        for key in cold.outputs:
            assert file_bytes(warm.outputs[key]) == file_bytes(cold.outputs[key])


def test_toil_describes_a_hit_once_and_an_executed_job_four_times(tmp_path, monkeypatch):
    """A hit is one write of a description born ``done``; an executed job
    still goes new → issued → running → done (the paper's per-job store cost)."""
    writes: list = []
    real_write = FileJobStore._write

    def counting_write(store, job):
        writes.append((job.job_id, job.state))
        real_write(store, job)

    monkeypatch.setattr(FileJobStore, "_write", counting_write)
    store = tmp_path / "store"
    process, order = chain_fan_in_workflow(), {"message": "store writes"}

    with session_for("toil", store, tmp_path / "cold", monkeypatch) as session:
        cold = session.run(load_document(dict(process)), dict(order))
    assert cold.cache_stats == {"hits": 0, "misses": 3}
    per_job: dict = {}
    for job_id, state in writes:
        per_job.setdefault(job_id, []).append(state)
    assert sorted(per_job.values()) == [["new", "issued", "running", "done"]] * 3

    del writes[:]
    with session_for("toil", store, tmp_path / "warm", monkeypatch) as session:
        warm = session.run(load_document(dict(process)), dict(order))
        described = FileJobStore(str(tmp_path / "warm" / "jobstore")).list_jobs()
    assert warm.cache_stats == {"hits": 3, "misses": 0}
    assert sorted(state for _job, state in writes) == ["done"] * 3
    assert len({job_id for job_id, _state in writes}) == 3
    assert [job.state for job in described] == ["done"] * 3
    assert warm.details["job_store"].get("done") == 3


@pytest.mark.parametrize("faults", [None, "transient-all"])
def test_toil_keys_each_attempt_once(faults, tmp_path, monkeypatch):
    """A miss found by the probe ahead of the batch system is the probe the
    issued job stages with: one key per attempt, one miss per job."""
    keys: list = []
    real_cache_key = RuntimeContext.cache_key

    def counting_cache_key(context, tool, job_order, *identities):
        keys.append(tuple(sorted(job_order)))
        return real_cache_key(context, tool, job_order, *identities)

    monkeypatch.setattr(RuntimeContext, "cache_key", counting_cache_key)
    options = {}
    if faults is not None:
        profile = get_fault_profile(faults)
        options = {"fault_plan": profile.make_plan(), "retry_policy": profile.policy}
    with session_for("toil", tmp_path / "store", tmp_path / "cold", monkeypatch,
                     **options) as session:
        cold = session.run(load_document(chain_fan_in_workflow()), {"message": "one key"})
    assert cold.cache_stats == {"hits": 0, "misses": 3}
    # transient-all fails every job's first attempt before it probes.
    assert cold.retries() == (3 if faults else 0)
    assert sorted(keys) == [("f0",), ("f0", "f1"), ("message",)]


# ------------------------------------------ keys are functions of values only

def two_file_order(first, second) -> dict:
    return {"f0": {"class": "File", "path": str(first)},
            "f1": {"class": "File", "path": str(second)}}


@pytest.fixture
def equal_files(tmp_path):
    """``d1/x.txt`` and ``d2/x.txt``: equal bytes, equal basename, two inodes."""
    paths = []
    for directory in ("d1", "d2"):
        (tmp_path / directory).mkdir()
        path = tmp_path / directory / "x.txt"
        path.write_text("equal bytes\n")
        paths.append(path)
    return paths


def cat_process(engine: str) -> dict:
    tool = cat_tool(2, "joined.txt")
    if engine == "parsl":
        return tool  # the single-tool path of the Parsl engine
    return one_step_workflow(tool, tool["inputs"])


@pytest.mark.parametrize("engine", ENGINES)
def test_equal_inputs_hit_whatever_objects_they_share(engine, equal_files,
                                                      tmp_path, monkeypatch):
    """Warm with ``cat d1/x.txt d1/x.txt``; ``cat d1/x.txt d2/x.txt`` must hit.

    The key is documented as path-independent, but ``hash_obj`` pickled with
    a memo, so the digest depended on whether the two inputs' fingerprints
    were one string object (same path) or two (different paths).
    """
    d1, d2 = equal_files
    store = tmp_path / "store"
    process = cat_process(engine)
    with session_for(engine, store, tmp_path / "cold", monkeypatch) as session:
        cold = session.run(load_document(dict(process)), two_file_order(d1, d1))
    assert cold.cache_stats == {"hits": 0, "misses": 1}
    with session_for(engine, store, tmp_path / "warm", monkeypatch) as session:
        warm = session.run(load_document(dict(process)), two_file_order(d1, d2))
    assert warm.cache_stats == {"hits": 1, "misses": 0}
    assert file_bytes(warm.outputs["out"]) == file_bytes(cold.outputs["out"]) \
        == b"equal bytes\nequal bytes\n"


def test_store_warmed_with_shared_inputs_hits_on_every_other_engine(
        equal_files, tmp_path, monkeypatch):
    d1, d2 = equal_files
    store = tmp_path / "store"
    with session_for("reference", store, tmp_path / "reference", monkeypatch) as session:
        cold = session.run(load_document(dict(cat_process("reference"))),
                           two_file_order(d1, d1))
    assert cold.cache_stats == {"hits": 0, "misses": 1}
    for engine in ("toil", "parsl", "parsl-workflow"):
        with session_for(engine, store, tmp_path / engine, monkeypatch) as session:
            warm = session.run(load_document(dict(cat_process(engine))),
                               two_file_order(d1, d2))
        assert warm.cache_stats == {"hits": 1, "misses": 0}, engine
        assert file_bytes(warm.outputs["out"]) == file_bytes(cold.outputs["out"])


# -------------------------------------- the Parsl app path, executor by executor

def echo_tool_raw() -> dict:
    return {
        "class": "CommandLineTool", "baseCommand": "echo", "id": "echo_app",
        "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"}, "stdout": "echoed.txt",
    }


def app_body(tool: dict):
    body = functools.partial(cwl_tool_command, tool, None)
    body.__name__ = tool.get("id", "app")  # type: ignore[attr-defined]
    return body


@pytest.fixture
def primed(tmp_path, monkeypatch):
    """A store holding one ``echo recorded`` run made through the app path."""
    monkeypatch.chdir(tmp_path)
    store = str(tmp_path / "store")
    kwargs = {"cwl_inputs": {"message": "recorded"}, "cwl_cache_dir": store}
    assert cached_bash_executor(app_body(echo_tool_raw()), stdout="echoed.txt",
                                **kwargs).exit_code == 0
    assert (tmp_path / "echoed.txt").read_text() == "recorded\n"
    assert len(os.listdir(os.path.join(store, "entries"))) == 1
    return kwargs


def hit_of(primed) -> tuple:
    """What the result of a hit on the primed store says: the outcome, the
    key and the recorded exit code, for the journal's ``job`` record."""
    (entry,) = os.listdir(os.path.join(primed["cwl_cache_dir"], "entries"))
    return True, entry[:-len(".json")], 0


def outcome(result) -> tuple:
    return result.cache_hit, result.cache_key, result.exit_code


def test_hit_appends_when_the_redirection_mode_says_so(primed, tmp_path, monkeypatch):
    counted = Counted(monkeypatch)
    log = tmp_path / "logs" / "all.txt"
    log.parent.mkdir()
    log.write_text("before\n")
    result = cached_bash_executor(app_body(echo_tool_raw()), stdout=(str(log), "a"),
                                  **primed)
    assert outcome(result) == hit_of(primed)
    assert log.read_text() == "before\nrecorded\n"
    # A truncating redirection onto a name the entry was not recorded under.
    other = tmp_path / "fresh" / "other.txt"
    assert cached_bash_executor(app_body(echo_tool_raw()), stdout=str(other),
                                **primed).exit_code == 0
    assert other.read_text() == "recorded\n"
    assert counted.spawns == 0


def test_a_hit_opens_a_silent_stream_redirection_as_a_run_does(primed, tmp_path, monkeypatch):
    """``stderr=`` on a tool that writes none and names none: the stream is
    captured empty under the call's own key.  Bash's ``2> err.txt`` around a
    silent command leaves an empty file, and so does the hit."""
    assert cached_bash_executor(app_body(echo_tool_raw()), stdout="echoed.txt",
                                stderr="first-err.txt", **primed).exit_code == 0
    counted = Counted(monkeypatch)
    stale = tmp_path / "err.txt"
    stale.write_text("left over from an earlier run\n")
    kept = tmp_path / "appended-err.txt"
    kept.write_text("kept\n")
    assert cached_bash_executor(app_body(echo_tool_raw()), stdout="echoed.txt",
                                stderr="err.txt", **primed).exit_code == 0
    assert stale.read_text() == ""
    assert cached_bash_executor(app_body(echo_tool_raw()), stdout="echoed.txt",
                                stderr=(str(kept), "a"), **primed).exit_code == 0
    assert kept.read_text() == "kept\n"
    assert counted.spawns == 0


def test_hit_still_checks_declared_outputs(primed, tmp_path):
    with pytest.raises(MissingOutputs) as raised:
        cached_bash_executor(app_body(echo_tool_raw()), stdout="echoed.txt",
                             outputs=[File("echoed.txt"), File("never-made.txt")],
                             **primed)
    assert "never-made.txt" in str(raised.value)


def test_injected_fault_fires_before_the_probe(primed, tmp_path, monkeypatch):
    """``fatal-all``: every attempt fails before the app body runs, so the
    job is never probed — no hit is found, nothing is restored."""
    profile = get_fault_profile("fatal-all")
    probes = []
    real_probe = CommandLineJob.probe

    def probe(job, *devices):
        found = yield from real_probe(job, *devices)
        probes.append(found)
        return found

    monkeypatch.setattr(CommandLineJob, "probe", probe)
    with pytest.raises(InjectedFault) as raised:
        resilient_bash_executor(
            app_body(echo_tool_raw()), stdout="echoed.txt",
            cwl_fault_plan=profile.make_plan(), cwl_retry_policy=profile.policy,
            cwl_job_name="echo_app", **primed)
    assert probes == []
    assert [attempt for attempt, _error, _delay in raised.value.retries] == list(
        range(1, profile.policy.max_attempts))
    # Without the plan the same call is a plain hit.  Given its job's
    # directory, as a run's node is, the call's value is the job's result.
    result = resilient_bash_executor(
        app_body(echo_tool_raw()), cwl_job_dir=str(tmp_path / "node"),
        cwl_retry_policy=profile.policy, cwl_job_name="echo_app", **primed)
    assert outcome(result) == hit_of(primed)
    assert result.retries == ()
    assert len(probes) == 1 and probes[0].entry is not None


def test_a_redirection_outside_the_cwd_is_cached_and_hit(tmp_path, monkeypatch):
    """``stdout=`` an absolute path outside the cwd: the job's stream is
    stored under the tool's own name, so the second call hits, spawns
    nothing and copies the recorded stream there again, linked to nothing."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    outside = tmp_path / "elsewhere" / "far.txt"
    context = RuntimeContext(cache_dir=str(tmp_path / "store"))
    seen = []
    for _run in ("cold", "warm"):
        repro.load(repro.thread_config(max_threads=1, run_dir=str(cwd / "runinfo")))
        try:
            with monkeypatch.context() as patched:
                counted = Counted(patched)
                future = CWLApp(load_document(echo_tool_raw()), runtime_context=context)(
                    message="far away", stdout=str(outside))
                assert future.result() == 0
        finally:
            repro.clear()
        seen.append((len(os.listdir(tmp_path / "store" / "entries")), counted.spawns))
        assert outside.read_text() == "far away\n"
        assert os.stat(outside).st_nlink == 1
        outside.unlink()
    assert seen == [(1, 1), (1, 0)]  # a miss stored, then a hit on that entry
    assert not (cwd / "echoed.txt").exists()


def test_a_stream_the_tool_leaves_alone_is_captured_for_the_redirection(tmp_path, monkeypatch):
    """``stderr=`` on a tool with no ``stderr``: the job captures the stream
    and delivers it on the miss and on the hit, under a key of its own, so a
    runner's run of the tool itself does not hit that entry."""
    monkeypatch.chdir(tmp_path)
    tool = {"class": "CommandLineTool", "id": "warn", "baseCommand": ["sh", "-c", 'echo "$0" >&2'],
            "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
            "outputs": {}}
    context = RuntimeContext(cache_dir=str(tmp_path / "store"))
    seen = []
    for _run in ("cold", "warm"):
        repro.load(repro.thread_config(max_threads=1, run_dir=str(tmp_path / "runinfo")))
        try:
            with monkeypatch.context() as patched:
                counted = Counted(patched)
                future = CWLApp(load_document(dict(tool)), runtime_context=context)(
                    message="warned", stderr="err.txt")
                assert future.result() == 0
        finally:
            repro.clear()
        seen.append((len(os.listdir(tmp_path / "store" / "entries")), counted.spawns))
        assert (tmp_path / "err.txt").read_text() == "warned\n"
        (tmp_path / "err.txt").unlink()
    assert seen == [(1, 1), (1, 0)]  # a miss stored, then a hit on that entry
    own = api.run(load_document(dict(tool)), {"message": "warned"}, engine="reference",
                  cache_dir=str(tmp_path / "store"),
                  runtime_context=RuntimeContext(basedir=str(tmp_path / "own")))
    assert own.cache_stats == {"hits": 0, "misses": 1}


# ------------------------------ the execution-side store: what the globs matched

def test_a_wildcard_glob_hit_restores_the_matched_file(tmp_path, monkeypatch):
    """A bare ``CWLApp`` with a wildcard glob: nothing predicts ``x-out.txt``
    at submission, so the store must hold what the glob matched once the
    command succeeded — a hit in a fresh cwd restores it with the recorded
    bytes, never an empty directory reporting ``cache="hit"``."""
    tool = {"class": "CommandLineTool",
            "baseCommand": ["bash", "-c", "echo wild > x-out.txt"],
            "inputs": {}, "outputs": {"out": {"type": "File",
                                              "outputBinding": {"glob": "*-out.txt"}}}}
    context = RuntimeContext(cache_dir=str(tmp_path / "store"))
    seen = []
    for run in ("cold", "warm"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        repro.load(repro.thread_config(max_threads=2, run_dir=str(workdir / "runinfo")))
        try:
            with monkeypatch.context() as patched:
                counted = Counted(patched)
                exit_code = CWLApp(load_document(dict(tool)), runtime_context=context)().result()
        finally:
            repro.clear()
        seen.append((exit_code, counted.spawns,
                     sorted(os.listdir(tmp_path / "store" / "entries"))))
    # One key: the miss stored its entry, the hit spawned nothing.
    assert [(exit_code, spawns) for exit_code, spawns, _entries in seen] == [(0, 1), (0, 0)]
    assert len(seen[0][2]) == 1 and seen[1][2] == seen[0][2]
    assert (tmp_path / "warm" / "x-out.txt").read_bytes() == b"wild\n"


def test_an_output_eval_tool_hits_on_the_parsl_engine(tmp_path, monkeypatch):
    """``outputEval`` reduces the matched file to an int, so the collected
    output references no file; the store keeps the matched file itself and a
    hit re-runs collection over the restored copy."""
    tool = {"class": "CommandLineTool",
            "baseCommand": ["bash", "-c", "echo 6 7 > numbers.txt"],
            "requirements": [{"class": "InlineJavascriptRequirement"}],
            "inputs": {}, "outputs": {"n": {"type": "int", "outputBinding": {
                "glob": "numbers.txt", "loadContents": True,
                "outputEval": "$(parseInt(self[0].contents.split(' ')[0]))"}}}}
    results = []
    for run in ("cold", "warm"):
        with session_for("parsl", tmp_path / "store", tmp_path / run, monkeypatch) as session:
            results.append(session.run(load_document(dict(tool)), {}))
    cold, warm = results
    assert cold.cache_stats == {"hits": 0, "misses": 1}
    assert warm.cache_stats == {"hits": 1, "misses": 0}
    assert [event.cache for event in warm.events if event.kind == "end"] == ["hit"]
    assert warm.outputs == cold.outputs == {"n": 6}
