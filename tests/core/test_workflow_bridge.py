"""Tests for the CWL Workflow -> Parsl bridge (the paper's future-work extension)."""

from __future__ import annotations

import concurrent.futures
import os
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core.workflow_bridge import CWLWorkflowBridge
from repro.cwl.errors import WorkflowException
from repro.cwl.loader import load_document
from repro.imaging.png import read_png

ENGINES = ("reference", "toil", "parsl", "parsl-workflow")


def test_bridge_rejects_non_workflow(cwl_dir):
    with pytest.raises(WorkflowException):
        CWLWorkflowBridge(str(cwl_dir / "echo.cwl"))


def test_bridge_image_pipeline(cwl_dir, parsl_threads, tmp_path, small_image):
    bridge = CWLWorkflowBridge(str(cwl_dir / "image_pipeline.cwl"))
    outputs = bridge.run({
        "input_image": {"class": "File", "path": small_image},
        "size": 20, "sepia": True, "radius": 1,
    })
    final = outputs["final_output"]
    assert final["path"].endswith("blurred.png")
    assert read_png(final["path"]).shape == (20, 20, 3)
    # The steps' files stay in their node directories: none is put in the cwd.
    assert not (tmp_path / "blurred.png").exists()


def test_bridge_submit_returns_a_future_of_the_output_object(cwl_dir, parsl_threads, tmp_path,
                                                             small_image):
    bridge = CWLWorkflowBridge(str(cwl_dir / "image_pipeline.cwl"))
    future = bridge.submit({
        "input_image": {"class": "File", "path": small_image},
        "size": 16, "sepia": False, "radius": 1,
    })
    assert isinstance(future, concurrent.futures.Future)
    # The run is on a thread of its own: three chained python3 tools cannot
    # have finished by the time submit returned.
    assert not future.done()
    final = future.result(timeout=120)["final_output"]
    assert final["class"] == "File" and read_png(final["path"]).shape == (16, 16, 3)


def test_bridge_scatter_over_images(cwl_dir, parsl_threads, tmp_path, image_batch):
    """The paper's Fig 1 workflow: every shard of the scattered image pipeline
    writes resized.png/filtered.png/blurred.png, each in its own node
    directory, so each input keeps its own blurred image."""
    bridge = CWLWorkflowBridge(str(cwl_dir / "scatter_images.cwl"))
    outputs = bridge.run({
        "input_images": [{"class": "File", "path": p} for p in image_batch],
        "size": 16, "sepia": True, "radius": 1,
    })
    paths = [value["path"] for value in outputs["final_outputs"]]
    assert len(set(paths)) == len(image_batch)
    assert all(path.endswith("blurred.png") for path in paths)
    images = [read_png(path) for path in paths]
    assert all(image.shape == (16, 16, 3) for image in images)
    assert len({image.tobytes() for image in images}) == len(image_batch)


def test_bridge_scatter_commandlinetool_step(parsl_threads, tmp_path, image_batch):
    """Scatter works when the scattered step is a CommandLineTool."""
    workflow = load_document({
        "cwlVersion": "v1.2",
        "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "StepInputExpressionRequirement"}],
        "inputs": {"images": "File[]", "size": "int"},
        "outputs": {"resized": {"type": "File[]", "outputSource": "resize/output_image"}},
        "steps": {
            "resize": {
                "run": {
                    "class": "CommandLineTool",
                    "baseCommand": ["python3", "-m", "repro.imaging.cli", "resize"],
                    "inputs": {
                        "input_image": {"type": "File", "inputBinding": {"position": 1}},
                        "size": {"type": "int", "inputBinding": {"prefix": "--size"}},
                        "output_image": {"type": "string", "inputBinding": {"prefix": "--output"}},
                    },
                    "outputs": {"output_image": {"type": "File",
                                                 "outputBinding": {"glob": "$(inputs.output_image)"}}},
                },
                "scatter": "input_image",
                "in": {
                    "input_image": "images",
                    "size": "size",
                    "output_image": {
                        "source": "images",
                        "valueFrom": "$(self.basename)",
                    },
                },
                "out": ["output_image"],
            }
        },
    })
    # valueFrom over a scattered source is not resolvable per-element at submit time;
    # use distinct literal names instead by scattering over pre-named jobs.
    workflow.get_step("resize").in_[2].value_from = None
    bridge = CWLWorkflowBridge(workflow)
    with pytest.raises(Exception):
        # output_image now has no value at all -> missing required input, reported clearly.
        bridge.run({"images": [{"class": "File", "path": p} for p in image_batch], "size": 8})


def test_bridge_when_condition_static(parsl_threads, tmp_path):
    workflow = load_document({
        "cwlVersion": "v1.2",
        "class": "Workflow",
        "inputs": {"go": "boolean", "message": "string"},
        "outputs": {"result": {"type": "File?", "outputSource": "maybe_echo/output"}},
        "steps": {
            "maybe_echo": {
                "run": {
                    "class": "CommandLineTool", "baseCommand": "echo",
                    "inputs": {"go": "boolean",
                               "message": {"type": "string", "inputBinding": {"position": 1}}},
                    "outputs": {"output": "stdout"}, "stdout": "maybe.txt",
                },
                "when": "$(inputs.go)",
                "in": {"go": "go", "message": "message"},
                "out": ["output"],
            }
        },
    })
    bridge = CWLWorkflowBridge(workflow)
    skipped = bridge.run({"go": False, "message": "nope"})
    assert skipped["result"] is None
    assert not (tmp_path / "maybe.txt").exists()

    ran = bridge.run({"go": True, "message": "yes"})
    assert ran["result"]["path"].endswith("maybe.txt")
    assert Path(ran["result"]["path"]).read_text().strip() == "yes"

    # Every run interprets the graph on an empty value store: the value the
    # previous run stored for maybe_echo/output does not leak into this one.
    assert bridge.run({"go": False, "message": "again"})["result"] is None
    assert Path(ran["result"]["path"]).read_text().strip() == "yes"


def test_bridge_missing_workflow_input_reported(cwl_dir, parsl_threads):
    bridge = CWLWorkflowBridge(str(cwl_dir / "image_pipeline.cwl"))
    with pytest.raises(WorkflowException, match="required"):
        bridge.run({"size": 10})


def test_bridge_flattens_nested_subworkflow(cwl_dir, parsl_threads, tmp_path, small_image):
    """Non-scattered subworkflow steps are flattened into the shared graph IR,
    so the bridge now runs them (previously an UnsupportedRequirement)."""
    wrapper = load_document({
        "cwlVersion": "v1.2",
        "class": "Workflow",
        "requirements": [{"class": "SubworkflowFeatureRequirement"}],
        "inputs": {"input_image": "File", "size": "int", "sepia": "boolean",
                   "radius": "int"},
        "outputs": {"wrapped": {"type": "File", "outputSource": "pipeline/final_output"}},
        "steps": {
            "pipeline": {
                "run": str(cwl_dir / "image_pipeline.cwl"),
                "in": {"input_image": "input_image", "size": "size",
                       "sepia": "sepia", "radius": "radius"},
                "out": ["final_output"],
            }
        },
    })
    bridge = CWLWorkflowBridge(wrapper)
    # The shared IR exposes the flattened shape before anything runs.
    assert "pipeline/resize_image" in bridge.graph.nodes
    outputs = bridge.run({
        "input_image": {"class": "File", "path": small_image},
        "size": 20, "sepia": True, "radius": 1,
    })
    assert outputs["wrapped"]["path"].endswith("blurred.png")
    assert read_png(outputs["wrapped"]["path"]).shape == (20, 20, 3)


def _engine_options(engine, tmp_path):
    if engine == "toil":
        return {"job_store_dir": str(tmp_path / "jobstore"),
                "destroy_job_store_on_close": True}
    if engine.startswith("parsl"):
        return {"config": repro.thread_config(max_threads=2,
                                              run_dir=str(tmp_path / "runinfo"))}
    return {}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scatter", [False, True])
def test_a_wildcard_glob_step_output_is_what_the_tool_made(engine, scatter, tmp_path,
                                                           monkeypatch):
    """A wildcard glob names its file only once the tool ran: a plain step
    and a scatter shard both give the file the tool made, on every engine."""
    monkeypatch.chdir(tmp_path)
    step = {
        "run": {"class": "CommandLineTool", "baseCommand": "touch",
                "inputs": {"name": {"type": "string", "inputBinding": {"position": 1}}},
                "outputs": {"made": {"type": "File", "outputBinding": {"glob": "*.txt"}}}},
        "in": {"name": "names" if scatter else "one"}, "out": ["made"],
    }
    if scatter:
        step["scatter"] = "name"
    workflow = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"names": "string[]", "one": "string"},
        "outputs": {"made": {"type": "Any", "outputSource": "make/made"}},
        "steps": {"make": step},
    }
    made = api.run(workflow, {"names": ["a.txt", "b.txt"], "one": "c.txt"}, engine=engine,
                   **_engine_options(engine, tmp_path)).outputs["made"]
    basenames = [value["basename"] for value in made] if scatter else made["basename"]
    assert basenames == (["a.txt", "b.txt"] if scatter else "c.txt")


def _produce_then(consumer: dict) -> dict:
    """A workflow: `produce` echoes "hi" to produced.txt, `use` runs
    ``consumer`` on that File as its `source` input."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {}, "outputs": {"out": {"type": "File", "outputSource": "use/out"}},
        "steps": {
            "produce": {"run": {"class": "CommandLineTool", "baseCommand": ["echo", "hi"],
                                "inputs": {}, "outputs": {"out": "stdout"},
                                "stdout": "produced.txt"},
                        "in": {}, "out": ["out"]},
            "use": {"run": consumer, "in": {"source": "produce/out"}, "out": ["out"]},
        },
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_a_stream_named_from_a_field_of_an_upstream_file(engine, tmp_path, monkeypatch):
    """A stdout name built from the upstream File's `size` is `3.copy`
    ("hi\\n" is 3 bytes) on every engine: the Parsl engines submit the step
    with the File the upstream step made, not a future of it."""
    monkeypatch.chdir(tmp_path)
    workflow = _produce_then({
        "class": "CommandLineTool", "baseCommand": "cat",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"source": {"type": "File", "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"}, "stdout": "$(inputs.source.size).copy",
    })
    result = api.run(workflow, {}, engine=engine, **_engine_options(engine, tmp_path))
    assert result.outputs["out"]["basename"] == "3.copy"
    assert Path(result.outputs["out"]["path"]).read_text() == "hi\n"


def test_scatter_shards_with_one_literal_output_name_keep_their_own_outputs(
        parsl_threads, tmp_path):
    """Each shard of a scattered step with a literal `stdout:` keeps its own
    output, as on the runners (`a`, `b`, `c`)."""
    workflow = load_document({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"words": "string[]"},
        "outputs": {"said": {"type": "File[]", "outputSource": "say/out"}},
        "steps": {"say": {
            "run": {"class": "CommandLineTool", "baseCommand": "echo",
                    "inputs": {"word": {"type": "string", "inputBinding": {"position": 1}}},
                    "outputs": {"out": "stdout"}, "stdout": "said.txt"},
            "scatter": "word", "in": {"word": "words"}, "out": ["out"]}},
    })
    outputs = CWLWorkflowBridge(workflow).run({"words": ["a", "b", "c"]})
    assert [Path(value["path"]).read_text() for value in outputs["said"]] == \
        ["a\n", "b\n", "c\n"]


@pytest.mark.parametrize("engine", ["reference", "parsl", "parsl-workflow"])
def test_a_step_named_dot_dot_runs_inside_the_bridge_root(engine, tmp_path, monkeypatch):
    """A node's directory is under its run's root whatever the step is
    called: a step named `..` does not run in (and empty) the directory the
    root was made in, where a canary file and a sibling directory stay."""
    monkeypatch.chdir(tmp_path)
    base = tmp_path / "jobs"
    (base / "sibling").mkdir(parents=True)
    (base / "sibling" / "kept.txt").write_text("kept\n")
    (base / "canary.txt").write_text("canary\n")
    workflow = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"word": "string"},
        "outputs": {"said": {"type": "File", "outputSource": "../out"}},
        "steps": {"..": {
            "run": {"class": "CommandLineTool", "baseCommand": "echo",
                    "inputs": {"word": {"type": "string", "inputBinding": {"position": 1}}},
                    "outputs": {"out": "stdout"}, "stdout": "said.txt"},
            "in": {"word": "word"}, "out": ["out"]}},
    }
    options = {"basedir": str(base)}
    if engine.startswith("parsl"):
        options["config"] = repro.thread_config(max_threads=2,
                                                run_dir=str(tmp_path / "runinfo"))
    said = api.run(workflow, {"word": "up"}, engine=engine, **options).outputs["said"]
    assert Path(said["path"]).read_text() == "up\n"
    root, *below = os.path.relpath(said["path"], base).split(os.sep)
    assert root.startswith("cwl-run-") and ".." not in below
    assert (base / "canary.txt").read_text() == "canary\n"
    assert (base / "sibling" / "kept.txt").read_text() == "kept\n"


def test_the_bridge_collects_on_htex_what_it_collects_on_threads(parsl_htex_local, tmp_path,
                                                                 monkeypatch):
    """On a process-based executor each step's job collects its outputs in
    its worker process, in the node's directory, and the task's value brings
    them back: an ``outputEval`` int and the File of the step submitted with
    it are what the runners return, and the submitting side collects
    nothing."""
    from repro.cwl import job, outputs
    from tests.conformance.test_unsupported_paths import output_eval_workflow

    collected = []

    def collect_outputs(tool, **kwargs):
        collected.append(kwargs["outdir"])
        raise AssertionError("collected on the submitting side")

    monkeypatch.setattr(job, "collect_outputs", collect_outputs)
    monkeypatch.setattr(outputs, "collect_outputs", collect_outputs)
    result = CWLWorkflowBridge(load_document(output_eval_workflow())).run({})
    assert collected == []
    assert result["n"] == 42
    assert Path(result["doubled"]["path"]).read_text() == "84\n"
    assert result["doubled"]["path"].endswith(os.path.join("double", "doubled.txt"))


def test_a_bridge_without_an_observer_evaluates_an_expression_tool_step_inline(
        parsl_threads, monkeypatch):
    """A bridge given no ``job_observer`` still runs every job through the
    runners' job routine, reporting to a recorder of its own: the
    ExpressionTool step is evaluated on the thread that runs the bridge, with
    no ``CWLApp`` call, and its int is what the next step is submitted with."""
    import threading

    from repro.api.events import EventRecorder
    from repro.core.cwl_app import CWLApp
    from repro.testing.corpus import load_case

    case = load_case(Path(__file__).parents[2] / "conformance" / "corpus"
                     / "wf_expression_tool_feeds_step.yaml")
    called, finished = [], []
    app_call, job_finished = CWLApp.__call__, EventRecorder.job_finished

    def spy_call(app, **kwargs):
        called.append(app.tool.base_command)
        return app_call(app, **kwargs)

    def spy_finished(recorder, token, **kwargs):
        finished.append((kwargs.get("ok", True), kwargs.get("exit_code"),
                         threading.current_thread()))
        return job_finished(recorder, token, **kwargs)

    monkeypatch.setattr(CWLApp, "__call__", spy_call)
    monkeypatch.setattr(EventRecorder, "job_finished", spy_finished)
    bridge = CWLWorkflowBridge(load_document(dict(case.process)))
    assert bridge.job_observer is None
    outputs = bridge.run(dict(case.job))
    assert Path(outputs["said"]["path"]).read_text() == "42\n"
    assert called == [["echo"]]
    # ``double`` (no exit code: nothing ran), then ``say``.
    assert finished == [(True, None, threading.current_thread()),
                        (True, 0, threading.current_thread())]
