"""Tests for the unified execution API: registry, Session, results, events."""

from __future__ import annotations

import sys
import threading

import pytest

import repro
from repro import api
from repro.api.engine import EngineError, UnknownEngineError, _REGISTRY
from repro.cwl.runtime import RuntimeContext


# ----------------------------------------------------------------- registry


def test_builtin_engines_registered():
    assert {"reference", "toil", "parsl", "parsl-workflow"} <= set(api.list_engines())


def test_aliases_resolve_to_canonical_names():
    assert api.resolve_engine_name("cwltool") == "reference"
    assert api.resolve_engine_name("toil-like") == "toil"
    assert api.resolve_engine_name("parsl-cwl") == "parsl"
    assert api.resolve_engine_name("bridge") == "parsl-workflow"
    assert api.resolve_engine_name("Reference") == "reference"


def test_unknown_engine_rejected():
    with pytest.raises(UnknownEngineError, match="registered engines"):
        api.get_engine("quantum")


def test_duplicate_registration_rejected_unless_replaced():
    factory = _REGISTRY["reference"]
    with pytest.raises(ValueError, match="already registered"):
        api.register_engine("reference", factory)
    api.register_engine("reference", factory, replace=True)  # restores itself


def test_custom_engine_runs_through_session():
    class EchoEngine(api.Engine):
        def execute(self, process, job_order, hooks=None):
            return api.ExecutionResult(outputs=dict(job_order), engine=self.name)

    api.register_engine("echo-test", EchoEngine)
    try:
        result = api.run({"ignored": True}, {"x": 1}, engine="echo-test")
        assert result.outputs == {"x": 1}
        assert result.engine == "echo-test"
    finally:
        _REGISTRY.pop("echo-test")


# ------------------------------------------------------------------ session


def test_session_runs_many_orders_through_one_engine(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with api.Session(engine="reference",
                     runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
        for index in range(3):
            result = session.run(str(cwl_dir / "echo.cwl"), {"message": f"run {index}"})
            assert result.status == "success"
    with pytest.raises(RuntimeError, match="closed"):
        session.run(str(cwl_dir / "echo.cwl"), {})


def test_session_submit_is_asynchronous(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with api.Session(engine="reference",
                     runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
        handles = [session.submit(str(cwl_dir / "echo.cwl"), {"message": f"async {i}"})
                   for i in range(3)]
        results = [handle.result(timeout=60) for handle in handles]
    assert all(r.outputs["output"]["basename"] == "hello.txt" for r in results)
    assert all(handle.done() for handle in handles)


def test_session_rejects_options_with_engine_instance():
    engine = api.get_engine("reference")
    with pytest.raises(ValueError, match="engine options"):
        api.Session(engine=engine, parallel=True)
    engine.close()


def test_submit_helper_closes_its_session(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    handle = api.submit(str(cwl_dir / "echo.cwl"), {"message": "one shot"},
                        engine="reference",
                        runtime_context=RuntimeContext(basedir=str(tmp_path)))
    assert handle.result(timeout=60).jobs_run == 1


# ------------------------------------------------------------ result shape


def test_execution_result_events_and_indexing(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    hooks = api.ExecutionHooks(on_job_start=lambda e: seen.append(("start", e.job)),
                               on_job_end=lambda e: seen.append(("end", e.ok)))
    result = api.run(str(cwl_dir / "echo.cwl"), {"message": "events"},
                     engine="reference", hooks=hooks,
                     runtime_context=RuntimeContext(basedir=str(tmp_path)))
    assert seen == [("start", "echo"), ("end", True)]
    assert result.job_names() == ["echo"]
    assert result["output"]["basename"] == "hello.txt"
    end_events = [e for e in result.events if e.kind == "end"]
    assert end_events[0].duration_s > 0
    assert "engine=reference" in result.summary()


def test_failed_job_reports_end_event_and_raises(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failing = {"cwlVersion": "v1.2", "class": "CommandLineTool",
               "baseCommand": "false", "inputs": {}, "outputs": {}}
    seen = []
    hooks = api.ExecutionHooks(on_job_end=lambda e: seen.append((e.ok, e.error)))
    with pytest.raises(Exception):
        api.run(failing, {}, engine="reference", hooks=hooks,
                runtime_context=RuntimeContext(basedir=str(tmp_path)))
    assert seen and seen[0][0] is False
    assert "exit code" in seen[0][1]


def test_toil_engine_exposes_job_store_stats(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = api.run(str(cwl_dir / "echo.cwl"), {"message": "stats"}, engine="toil",
                     job_store_dir=str(tmp_path / "jobstore"),
                     runtime_context=RuntimeContext(basedir=str(tmp_path)),
                     destroy_job_store_on_close=True)
    assert result.details["job_store"].get("done") == 1


def test_parsl_workflow_engine_rejects_tools(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(EngineError, match="complete CWL Workflows"):
        api.run(str(cwl_dir / "echo.cwl"), {"message": "x"}, engine="parsl-workflow",
                config=repro.thread_config(max_threads=2,
                                           run_dir=str(tmp_path / "runinfo")))


def echo_workflow(prefix: str, steps: int) -> dict:
    """A workflow of ``steps`` independent echo steps, ``{prefix}1`` ... (each
    step's tool carries the step's name as its id)."""
    def tool(name: str) -> dict:
        return {"class": "CommandLineTool", "id": name, "baseCommand": "echo",
                "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
                "outputs": {"out": "stdout"}, "stdout": f"{name}.txt"}

    names = [f"{prefix}{index}" for index in range(1, steps + 1)]
    return {"cwlVersion": "v1.2", "class": "Workflow", "inputs": {"message": "string"},
            "outputs": {"out": {"type": "File", "outputSource": f"{names[0]}/out"}},
            "steps": {name: {"run": tool(name), "in": {"message": "message"}, "out": ["out"]}
                      for name in names}}


def test_concurrent_submits_on_one_reference_session(tmp_path, monkeypatch):
    """Two workflows in flight at once on one runner: each result holds only
    its own events and counts only its own jobs."""
    monkeypatch.chdir(tmp_path)
    both_running = threading.Barrier(2)

    def meet_on_first_start() -> api.ExecutionHooks:
        started = []

        def on_start(event):
            if not started:
                started.append(event.job)
                # Runs serialised on the engine would never both get here.
                both_running.wait(timeout=60)

        return api.ExecutionHooks(on_job_start=on_start)

    sizes = {"a": 2, "b": 3}
    with api.Session(engine="reference",
                     runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
        handles = {prefix: session.submit(echo_workflow(prefix, steps), {"message": prefix},
                                          hooks=meet_on_first_start())
                   for prefix, steps in sizes.items()}
        results = {prefix: handle.result(timeout=120) for prefix, handle in handles.items()}
    for prefix, steps in sizes.items():
        result = results[prefix]
        names = [f"{prefix}{index}" for index in range(1, steps + 1)]
        assert result.jobs_run == steps
        assert sorted(result.job_names()) == names
        assert sorted(e.job for e in result.events if e.kind == "end") == names


def test_concurrent_submits_on_one_toil_session(cwl_dir, tmp_path, monkeypatch):
    """Concurrent submits on one Toil runner do not cross state: each result
    holds its own job, and the job store they share counts every one."""
    monkeypatch.chdir(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # thread switches between almost every bytecode
    try:
        with api.Session(engine="toil", job_store_dir=str(tmp_path / "jobstore"),
                         runtime_context=RuntimeContext(basedir=str(tmp_path)),
                         destroy_job_store_on_close=True) as session:
            handles = [session.submit(str(cwl_dir / "echo.cwl"), {"message": f"c{i}"})
                       for i in range(8)]
            results = [handle.result(timeout=120) for handle in handles]
            stats = session.engine.job_store.stats()
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert result.jobs_run == 1
        assert [e.kind for e in result.events] == ["start", "end"]
    assert stats.get("done") == 8


def test_workflow_end_events_present_when_run_returns(cwl_dir, small_image, tmp_path,
                                                      monkeypatch):
    """Bridge end events land before api.run returns (no late callbacks)."""
    monkeypatch.chdir(tmp_path)
    result = api.run(str(cwl_dir / "image_pipeline.cwl"),
                     {"input_image": {"class": "File", "path": small_image},
                      "size": 12, "sepia": False, "radius": 1},
                     engine="parsl-workflow",
                     config=repro.thread_config(max_threads=4,
                                                run_dir=str(tmp_path / "runinfo")))
    kinds = [e.kind for e in result.events]
    assert kinds.count("start") == 3 and kinds.count("end") == 3
    assert all(e.duration_s is not None for e in result.events if e.kind == "end")


# ---------------------------------------------------- CLI routes through API


def test_runner_engines_are_the_runners():
    from repro.cwl.runners.reference import ReferenceRunner
    from repro.cwl.runners.toil.runner import ToilStyleRunner

    for name, runner_class in (("reference", ReferenceRunner), ("toil", ToilStyleRunner)):
        engine = api.get_engine(name)
        try:
            assert type(engine) is runner_class and engine.name == name
        finally:
            engine.close()


def test_cwltool_cli_routes_through_registry(cwl_dir, tmp_path, capsys):
    from repro.cwl.cli import cwltool_main
    from repro.cwl.runners.reference import ReferenceRunner

    instantiated = []

    def spy_factory(**options):
        engine = ReferenceRunner(**options)
        instantiated.append(engine)
        return engine

    api.register_engine("reference", spy_factory, replace=True)
    try:
        exit_code = cwltool_main(["--outdir", str(tmp_path), "--quiet",
                                  str(cwl_dir / "echo.cwl"), "--message", "spied"])
    finally:
        api.register_engine("reference", ReferenceRunner, replace=True)
    assert exit_code == 0
    assert len(instantiated) == 1
    capsys.readouterr()


def test_parsl_cli_routes_through_registry(cwl_dir, config_dir, tmp_path, capsys):
    from repro.api.parsl_engines import ParslEngine
    from repro.core.cli import main as parsl_cwl_main

    instantiated = []

    def spy_factory(**options):
        engine = ParslEngine(**options)
        instantiated.append(engine)
        return engine

    api.register_engine("parsl", spy_factory, replace=True)
    try:
        exit_code = parsl_cwl_main(["--outdir", str(tmp_path), "--quiet",
                                    str(config_dir / "local_threads.yml"),
                                    str(cwl_dir / "echo.cwl"), "--message", "spied"])
    finally:
        api.register_engine("parsl", ParslEngine, replace=True)
    assert exit_code == 0
    assert len(instantiated) == 1
    capsys.readouterr()


# ------------------------------------------------- ResourceRequirement runtime


RUNTIME_TOOL = {
    "cwlVersion": "v1.2",
    "class": "CommandLineTool",
    "baseCommand": "echo",
    "requirements": [{"class": "ResourceRequirement", "coresMin": 3, "ramMin": 2048}],
    "inputs": {},
    "arguments": ["$(runtime.cores)", "$(runtime.ram)"],
    "outputs": {"out": "stdout"},
    "stdout": "resources.txt",
}


@pytest.mark.parametrize("engine", ["reference", "toil", "parsl"])
def test_runtime_expressions_see_resource_requirement(engine, tmp_path, monkeypatch):
    """$(runtime.cores) / $(runtime.ram) honour ResourceRequirement on every path."""
    monkeypatch.chdir(tmp_path)
    options = {}
    if engine in ("reference", "toil"):
        options["runtime_context"] = RuntimeContext(basedir=str(tmp_path))
    if engine == "toil":
        options["job_store_dir"] = str(tmp_path / "jobstore")
        options["destroy_job_store_on_close"] = True
    if engine == "parsl":
        options["config"] = repro.thread_config(max_threads=2,
                                                run_dir=str(tmp_path / "runinfo"))
    result = api.run(dict(RUNTIME_TOOL), {}, engine=engine, **options)
    with open(result.outputs["out"]["path"]) as handle:
        assert handle.read().split() == ["3", "2048"]


def test_with_resources_ignores_non_numeric_and_missing():
    from repro.cwl.loader import load_document

    context = RuntimeContext(cores=2, ram_mb=512)
    plain = load_document({"cwlVersion": "v1.2", "class": "CommandLineTool",
                           "baseCommand": "true", "inputs": {}, "outputs": {}})
    assert context.with_resources(plain) is context

    weird = load_document({
        "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": "true",
        "requirements": [{"class": "ResourceRequirement",
                          "coresMin": "$(inputs.n)", "ramMin": 4096}],
        "inputs": {}, "outputs": {}})
    derived = context.with_resources(weird)
    assert derived.cores == 2          # expression -> fall back to context default
    assert derived.ram_mb == 4096
