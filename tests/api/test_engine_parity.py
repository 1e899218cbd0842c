"""Engine parity: the same document + job order yields the same outputs
through every engine of the unified API (the paper's core equivalence claim,
now assertable in one place instead of four bespoke harnesses)."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.cwl.errors import JobFailure
from repro.cwl.faults import FaultPlan, FaultSpec
from repro.cwl.runtime import RuntimeContext

#: Engines that can run a bare CommandLineTool.
TOOL_ENGINES = ["reference", "toil", "parsl"]
#: Engines that can run a complete Workflow.
WORKFLOW_ENGINES = ["reference", "toil", "parsl", "parsl-workflow"]


def normalise(value):
    """Reduce an output value to its engine-independent core.

    File outputs land in different directories per engine (job dirs, the
    Parsl cwd, the Toil store), so paths are replaced by basename + size +
    contents; extra engine annotations (``jobStoreFileID``, checksums) drop.
    """
    if isinstance(value, dict) and value.get("class") == "File":
        with open(value["path"], "rb") as handle:
            contents = handle.read()
        return {"class": "File", "basename": value.get("basename"),
                "size": value.get("size"), "contents": contents}
    if isinstance(value, list):
        return [normalise(item) for item in value]
    return value


@pytest.fixture
def run_engine(tmp_path_factory, monkeypatch):
    """Run a process through one engine in an isolated working directory."""

    def run(engine, process, job_order):
        workdir = tmp_path_factory.mktemp(engine.replace("-", "_"))
        monkeypatch.chdir(workdir)
        options = {}
        if engine in ("reference", "toil"):
            options["runtime_context"] = RuntimeContext(basedir=str(workdir))
        if engine == "toil":
            options["job_store_dir"] = str(workdir / "jobstore")
            options["destroy_job_store_on_close"] = True
        if engine in ("parsl", "parsl-workflow"):
            options["config"] = repro.thread_config(
                max_threads=4, run_dir=str(workdir / "runinfo"))
        return api.run(process, dict(job_order), engine=engine, **options)

    return run


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_command_line_tool_outputs_identical(engine, run_engine, cwl_dir):
    """Acceptance: repro.api.run(doc, order, engine=e) gives identical outputs."""
    job_order = {"message": "one API, many engines"}
    baseline = run_engine("reference", str(cwl_dir / "echo.cwl"), job_order)
    result = run_engine(engine, str(cwl_dir / "echo.cwl"), job_order)

    assert result.engine == engine
    assert result.status == "success"
    assert result.jobs_run == 1
    assert {e.kind for e in result.events} == {"start", "end"}
    assert normalise(result.outputs["output"]) == normalise(baseline.outputs["output"])
    assert normalise(result.outputs["output"])["contents"] == b"one API, many engines\n"


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_js_expression_tool_outputs_identical(engine, run_engine, cwl_dir):
    """The compiled pipeline (toil/parsl default) must be bit-identical to the
    uncached reference runner on an expression-heavy tool."""
    job_order = {"message": "the compiled pipeline must not change results"}
    baseline = run_engine("reference", str(cwl_dir / "capitalize_js.cwl"), job_order)
    result = run_engine(engine, str(cwl_dir / "capitalize_js.cwl"), job_order)

    assert result.status == "success"
    assert normalise(result.outputs["output"])["contents"] == \
        normalise(baseline.outputs["output"])["contents"]
    assert normalise(baseline.outputs["output"])["contents"] == \
        b"The Compiled Pipeline Must Not Change Results\n"


#: A tool whose output file name derives from an input, so every engine —
#: including the submission-time Parsl bridge — can predict and collect it.
WRITE_TOOL = {
    "class": "CommandLineTool",
    "baseCommand": ["python3", "-c",
                    "import sys; open(sys.argv[1], 'w').write(sys.argv[2].upper())"],
    "inputs": {
        "go": {"type": "boolean"},
        "name": {"type": "string", "inputBinding": {"position": 1}},
        "word": {"type": "string", "inputBinding": {"position": 2}},
    },
    "outputs": {"out": {"type": "File", "outputBinding": {"glob": "$(inputs.name)"}}},
}


def guarded_scatter_workflow():
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"go": "boolean", "names": "string[]", "words": "string[]"},
        "outputs": {"files": {"type": "Any", "outputSource": "write/out"}},
        "steps": {
            "write": {"run": dict(WRITE_TOOL), "scatter": ["name", "word"],
                      "scatterMethod": "dotproduct", "when": "$(inputs.go)",
                      "in": {"go": "go", "name": "names", "word": "words"},
                      "out": ["out"]},
        },
    }


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_when_plus_scatter_parity(engine, run_engine):
    """A false `when` guard skips the whole scattered step on every engine;
    a true guard scatters identically (same files, same contents)."""
    job_order = {"go": True, "names": ["w0.txt", "w1.txt", "w2.txt"],
                 "words": ["alpha", "beta", "gamma"]}
    baseline = run_engine("reference", guarded_scatter_workflow(), job_order)
    result = run_engine(engine, guarded_scatter_workflow(), job_order)
    assert normalise(result.outputs["files"]) == normalise(baseline.outputs["files"])
    assert [f["contents"] for f in normalise(baseline.outputs["files"])] == \
        [b"ALPHA", b"BETA", b"GAMMA"]

    skipped = run_engine(engine, guarded_scatter_workflow(),
                         {"go": False, "names": ["w0.txt"], "words": ["alpha"]})
    assert skipped.outputs["files"] is None
    assert skipped.jobs_run == 0


def merge_flattened_workflow():
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "MultipleInputFeatureRequirement"}],
        "inputs": {"go": "boolean", "left_names": "string[]", "right_names": "string[]",
                   "left_words": "string[]", "right_words": "string[]"},
        "outputs": {"flat": {"type": "Any",
                             "outputSource": ["left/out", "right/out"],
                             "linkMerge": "merge_flattened"}},
        "steps": {
            "left": {"run": dict(WRITE_TOOL), "scatter": ["name", "word"],
                     "scatterMethod": "dotproduct",
                     "in": {"go": "go", "name": "left_names", "word": "left_words"},
                     "out": ["out"]},
            "right": {"run": dict(WRITE_TOOL), "scatter": ["name", "word"],
                      "scatterMethod": "dotproduct",
                      "in": {"go": "go", "name": "right_names", "word": "right_words"},
                      "out": ["out"]},
        },
    }


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_merge_flattened_workflow_outputs_parity(engine, run_engine):
    """`linkMerge: merge_flattened` workflow outputs combine two scatter arrays
    into one flat list identically on every engine."""
    job_order = {"go": True,
                 "left_names": ["l0.txt", "l1.txt"], "left_words": ["one", "two"],
                 "right_names": ["r0.txt"], "right_words": ["three"]}
    baseline = run_engine("reference", merge_flattened_workflow(), job_order)
    result = run_engine(engine, merge_flattened_workflow(), job_order)

    flattened = normalise(result.outputs["flat"])
    assert len(flattened) == 3
    assert flattened == normalise(baseline.outputs["flat"])
    assert [f["contents"] for f in flattened] == [b"ONE", b"TWO", b"THREE"]


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_workflow_outputs_identical(engine, run_engine, cwl_dir, small_image):
    job_order = {"input_image": {"class": "File", "path": small_image},
                 "size": 16, "sepia": True, "radius": 1}
    baseline = run_engine("reference", str(cwl_dir / "image_pipeline.cwl"), job_order)
    result = run_engine(engine, str(cwl_dir / "image_pipeline.cwl"), job_order)

    assert result.jobs_run == 3
    assert len([e for e in result.events if e.kind == "end" and e.ok]) == 3
    assert normalise(result.outputs["final_output"]) == \
        normalise(baseline.outputs["final_output"])


# ------------------------------------------------------ the options contract

ECHO_WORKFLOW = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "inputs": {"message": "string"},
    "outputs": {"out": {"type": "File", "outputSource": "only/out"}},
    "steps": {"only": {
        "run": {"class": "CommandLineTool", "baseCommand": "echo",
                "inputs": {"message": {"type": "string",
                                       "inputBinding": {"position": 1}}},
                "outputs": {"out": "stdout"}, "stdout": "echoed.txt"},
        "in": {"message": "message"}, "out": ["out"]}},
}


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_run_options_travel_in_the_context_or_flat(engine, tmp_path, monkeypatch):
    """Every engine takes backend arguments plus a RuntimeContext: options
    inside ``runtime_context=`` behave exactly like the same options given as
    flat keywords, a flat keyword overrides the context's field, and a name
    that is no context field raises TypeError naming it."""
    monkeypatch.chdir(tmp_path)
    backend = {"basedir": str(tmp_path / "jobs")}  # a context field, given flat
    if engine == "toil":
        backend.update(job_store_dir=str(tmp_path / "jobstore"),
                       destroy_job_store_on_close=True)
    if engine in ("parsl", "parsl-workflow"):
        backend["config"] = repro.thread_config(
            max_threads=2, run_dir=str(tmp_path / "runinfo"))

    def fail_first_attempt():
        return FaultPlan(specs=(FaultSpec(job="*", exit_code=11, attempts=1),), seed=7)

    patient = api.RetryPolicy(max_attempts=3, backoff_s=0.01, max_backoff_s=0.02,
                              retryable_exit_codes=(11,))

    def summary(**options):
        result = api.run(dict(ECHO_WORKFLOW), {"message": "one options object"},
                         engine=engine, **backend, **options)
        return (result.status, result.retries(), result.cache_stats,
                normalise(result.outputs["out"])["contents"])

    in_context = summary(runtime_context=RuntimeContext(
        timeout_s=30.0, retry_policy=patient, fault_plan=fail_first_attempt(),
        cache_dir=str(tmp_path / "store-a")))
    flat = summary(timeout_s=30.0, retry_policy=patient,
                   fault_plan=fail_first_attempt(),
                   cache_dir=str(tmp_path / "store-b"))
    assert in_context == flat == ("success", 1, {"hits": 0, "misses": 1},
                                  b"one options object\n")

    # A context that would give up after one attempt and cache into store-a
    # (now warm), overridden by keyword: the run retries, and misses store-c.
    impatient = RuntimeContext(retry_policy=api.RetryPolicy(max_attempts=1),
                               fault_plan=fail_first_attempt(),
                               cache_dir=str(tmp_path / "store-a"))
    assert summary(runtime_context=impatient, retry_policy=patient,
                   cache_dir=str(tmp_path / "store-c")) == flat

    with pytest.raises(TypeError, match="no_such_option"):
        api.Session(engine, no_such_option=1, **backend)


#: Echoes what the job was granted and the context's extra environment.
GRANTED_TOOL = {
    "class": "CommandLineTool",
    "baseCommand": ["bash", "-c", 'echo "$1 $2 $FOO"', "bash"],
    "arguments": ["$(runtime.cores)", "$(runtime.ram)"],
    "inputs": {}, "outputs": {"out": "stdout"}, "stdout": "granted.txt",
}


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_cores_ram_and_env_reach_the_job_and_its_cache_key(engine, tmp_path, monkeypatch):
    """``cores`` / ``ram_mb`` / ``env`` from the context reach the job on every
    engine, and are part of its cache key: a changed ``env`` is a miss, never
    a replay of the other value's output."""
    monkeypatch.chdir(tmp_path)
    process = GRANTED_TOOL
    if engine == "parsl-workflow":
        process = {"cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
                   "outputs": {"out": {"type": "File", "outputSource": "only/out"}},
                   "steps": {"only": {"run": GRANTED_TOOL, "in": {}, "out": ["out"]}}}
    backend = {"basedir": str(tmp_path / "jobs"), "cache_dir": str(tmp_path / "store")}
    if engine == "toil":
        backend.update(job_store_dir=str(tmp_path / "jobstore"),
                       destroy_job_store_on_close=True)
    if engine in ("parsl", "parsl-workflow"):
        backend["config"] = repro.thread_config(
            max_threads=2, run_dir=str(tmp_path / "runinfo"))

    def granted(foo):
        result = api.run(dict(process), {}, engine=engine, cores=4, ram_mb=2048,
                         env={"FOO": foo}, **backend)
        return (normalise(result.outputs["out"])["contents"],
                result.cache_stats)

    assert granted("bar") == (b"4 2048 bar\n", {"hits": 0, "misses": 1})
    assert granted("baz") == (b"4 2048 baz\n", {"hits": 0, "misses": 1})
    assert granted("bar") == (b"4 2048 bar\n", {"hits": 1, "misses": 0})


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_an_id_less_tool_is_one_job_to_faults_and_retries(engine, tmp_path, monkeypatch):
    """A tool without an ``id`` (a dict document) is ``<tool>`` to fault plans,
    retry policies and job events on every engine: a ``FaultSpec`` naming it
    fires, the job is retried as often as the spec fails it, and its events
    carry the same name."""
    monkeypatch.chdir(tmp_path)
    backend = {"basedir": str(tmp_path / "jobs")}
    if engine == "toil":
        backend.update(job_store_dir=str(tmp_path / "jobstore"),
                       destroy_job_store_on_close=True)
    if engine == "parsl":
        backend["config"] = repro.thread_config(
            max_threads=2, run_dir=str(tmp_path / "runinfo"))
    tool = ECHO_WORKFLOW["steps"]["only"]["run"]
    assert "id" not in tool
    result = api.run(
        dict(tool), {"message": "named once"}, engine=engine,
        fault_plan=FaultPlan(specs=(FaultSpec(job="<tool>", exit_code=11, attempts=2),)),
        retry_policy=api.RetryPolicy(max_attempts=3, backoff_s=0,
                                     retryable_exit_codes=(11,)), **backend)
    assert result.retries() == 2
    assert result.job_names() == ["<tool>"]
    assert normalise(result.outputs["out"])["contents"] == b"named once\n"


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_a_glob_is_matched_in_a_job_directory_whose_path_has_brackets(
        engine, tmp_path, monkeypatch):
    """A ``basedir`` of ``glob[1]`` is a path, not a pattern: the job
    directories under it are where every engine finds ``glob: made.txt``."""
    monkeypatch.chdir(tmp_path)
    backend = {"basedir": str(tmp_path / "glob[1]")}
    if engine == "toil":
        backend.update(job_store_dir=str(tmp_path / "jobstore"),
                       destroy_job_store_on_close=True)
    if engine == "parsl":
        backend["config"] = repro.thread_config(
            max_threads=2, run_dir=str(tmp_path / "runinfo"))
    tool = {"class": "CommandLineTool", "baseCommand": ["sh", "-c", "echo made > made.txt"],
            "inputs": {}, "outputs": {"made": {"type": "File",
                                               "outputBinding": {"glob": "made.txt"}}}}
    result = api.run(tool, {}, engine=engine, **backend)
    assert normalise(result.outputs["made"])["contents"] == b"made\n"


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_a_failed_job_ends_with_the_same_event_on_every_engine(engine, tmp_path, monkeypatch):
    """With the job cache on, a tool that exits 3 ends with the event the
    runners report on every engine: failed, on its first attempt, with no
    cache outcome (the job stored nothing)."""
    monkeypatch.chdir(tmp_path)
    backend = {"basedir": str(tmp_path / "jobs"), "cache_dir": str(tmp_path / "store")}
    if engine == "toil":
        backend.update(job_store_dir=str(tmp_path / "jobstore"),
                       destroy_job_store_on_close=True)
    if engine == "parsl":
        backend["config"] = repro.thread_config(
            max_threads=2, run_dir=str(tmp_path / "runinfo"))
    events = []
    hooks = api.ExecutionHooks(on_job_start=events.append, on_job_end=events.append)
    tool = {"class": "CommandLineTool", "baseCommand": ["sh", "-c", "exit 3"],
            "inputs": {}, "outputs": {}}
    with pytest.raises(JobFailure):
        api.run(tool, {}, engine=engine, hooks=hooks, **backend)
    assert [(e.kind, e.ok, e.cache, e.attempt) for e in events] == [
        ("start", True, None, 1), ("end", False, None, 1)]
