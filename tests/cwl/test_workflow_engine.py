"""Tests for the runner-agnostic workflow engine (dataflow, scatter, when, subworkflows)."""

from __future__ import annotations

import threading

import pytest

from repro.cwl.errors import WorkflowException
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, Process
from repro.cwl.workflow import WorkflowEngine


def make_workflow(doc):
    return load_document(doc)


def counting_runner(results_by_tool=None):
    """A fake process runner that records invocations and returns canned outputs."""
    calls = []

    def runner(process: Process, job_order, runtime_context):
        calls.append((process.id or getattr(process, "base_command", None), dict(job_order)))
        if results_by_tool is not None:
            return results_by_tool(process, job_order)
        # Default: echo back inputs under output names "out".
        return {"out": job_order}

    runner.calls = calls  # type: ignore[attr-defined]
    return runner


SIMPLE_TOOL = {
    "class": "CommandLineTool", "baseCommand": "x",
    "inputs": {"value": "Any"}, "outputs": {"out": {"type": "Any",
                                                    "outputBinding": {"outputEval": "$(1)"}}},
}


def linear_workflow():
    return make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"start": "int"},
        "outputs": {"final": {"type": "Any", "outputSource": "second/out"}},
        "steps": {
            "first": {"run": dict(SIMPLE_TOOL), "in": {"value": "start"}, "out": ["out"]},
            "second": {"run": dict(SIMPLE_TOOL), "in": {"value": "first/out"}, "out": ["out"]},
        },
    })


def test_linear_workflow_passes_values_between_steps():
    def double(process, job_order):
        return {"out": job_order["value"] * 2 if isinstance(job_order["value"], int)
                else job_order["value"]}

    runner = counting_runner(double)
    engine = WorkflowEngine(linear_workflow(), runner)
    outputs = engine.run({"start": 3})
    assert outputs == {"final": 12}
    # The second step ran on the first one's output.
    assert [job["value"] for _tool, job in runner.calls] == [3, 6]


def test_workflow_requires_its_inputs():
    engine = WorkflowEngine(linear_workflow(), counting_runner())
    with pytest.raises(Exception):
        engine.run({})


def test_step_default_and_value_from():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "StepInputExpressionRequirement"}],
        "inputs": {"name": "string"},
        "outputs": {"result": {"type": "Any", "outputSource": "only/out"}},
        "steps": {
            "only": {
                "run": {"class": "CommandLineTool", "baseCommand": "x",
                        "inputs": {"name": "string", "suffix": "string", "label": "string"},
                        "outputs": {"out": {"type": "Any", "outputBinding": {"outputEval": "$(1)"}}}},
                "in": {
                    "name": "name",
                    "suffix": {"default": ".png"},
                    "label": {"source": "name", "valueFrom": "$(self.toUpperCase())"},
                },
                "out": ["out"],
            }
        },
    })

    def runner(process, job_order):
        return {"out": f"{job_order['label']}{job_order['suffix']}"}

    outputs = WorkflowEngine(workflow, counting_runner(runner)).run({"name": "photo"})
    assert outputs == {"result": "PHOTO.png"}


def test_when_false_skips_step_and_yields_null():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"go": "boolean", "x": "int"},
        "outputs": {"result": {"type": "Any", "outputSource": "maybe/out"}},
        "steps": {
            "maybe": {"run": dict(SIMPLE_TOOL), "when": "$(inputs.go)",
                      "in": {"go": "go", "value": "x"}, "out": ["out"]},
        },
    })
    runner = counting_runner(lambda p, j: {"out": "ran"})
    skipped = WorkflowEngine(workflow, runner).run({"go": False, "x": 1})
    assert skipped == {"result": None}
    assert len(runner.calls) == 0
    ran = WorkflowEngine(workflow, counting_runner(lambda p, j: {"out": "ran"})).run({"go": True, "x": 1})
    assert ran == {"result": "ran"}


def test_scatter_dotproduct_collects_arrays():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"values": "int[]"},
        "outputs": {"all": {"type": "Any[]", "outputSource": "per_value/out"}},
        "steps": {
            "per_value": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                          "in": {"value": "values"}, "out": ["out"]},
        },
    })
    runner = counting_runner(lambda p, j: {"out": j["value"] + 100})
    outputs = WorkflowEngine(workflow, runner).run({"values": [1, 2, 3]})
    assert outputs == {"all": [101, 102, 103]}
    assert len(runner.calls) == 3


def test_scatter_parallel_execution_overlaps():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"values": "int[]"},
        "outputs": {"all": {"type": "Any[]", "outputSource": "per_value/out"}},
        "steps": {
            "per_value": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                          "in": {"value": "values"}, "out": ["out"]},
        },
    })
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def runner(process, job_order, runtime_context):
        import time

        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.05)
        with lock:
            active["now"] -= 1
        return {"out": job_order["value"]}

    engine = WorkflowEngine(workflow.steps and workflow, runner, parallel=True, max_workers=4)
    engine.run({"values": list(range(4))})
    assert active["peak"] >= 2, "parallel scatter jobs should overlap"


def test_multiple_sources_merge_nested_and_flattened():
    base = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "MultipleInputFeatureRequirement"}],
        "inputs": {"a": "int[]", "b": "int[]"},
        "outputs": {"combined": {"type": "Any", "outputSource": "merge/out"}},
        "steps": {
            "merge": {"run": dict(SIMPLE_TOOL),
                      "in": {"value": {"source": ["a", "b"]}}, "out": ["out"]},
        },
    }
    runner = counting_runner(lambda p, j: {"out": j["value"]})
    nested = WorkflowEngine(make_workflow(base), runner).run({"a": [1], "b": [2]})
    assert nested == {"combined": [[1], [2]]}

    flattened_doc = dict(base)
    flattened_doc["steps"] = {
        "merge": {"run": dict(SIMPLE_TOOL),
                  "in": {"value": {"source": ["a", "b"], "linkMerge": "merge_flattened"}},
                  "out": ["out"]},
    }
    flat = WorkflowEngine(make_workflow(flattened_doc), counting_runner(lambda p, j: {"out": j["value"]})).run(
        {"a": [1], "b": [2]})
    assert flat == {"combined": [1, 2]}


def test_missing_step_output_raises():
    engine = WorkflowEngine(linear_workflow(), counting_runner(lambda p, j: {"wrong_name": 1}))
    with pytest.raises(WorkflowException):
        engine.run({"start": 1})


def test_diamond_dependency_executes_each_step_once():
    workflow = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"seed": "int"},
        "outputs": {"final": {"type": "Any", "outputSource": "join/out"}},
        "steps": {
            "left": {"run": dict(SIMPLE_TOOL), "in": {"value": "seed"}, "out": ["out"]},
            "right": {"run": dict(SIMPLE_TOOL), "in": {"value": "seed"}, "out": ["out"]},
            "join": {"run": {"class": "CommandLineTool", "baseCommand": "x",
                             "inputs": {"value": "Any", "other": "Any"},
                             "outputs": {"out": {"type": "Any",
                                                 "outputBinding": {"outputEval": "$(1)"}}}},
                     "in": {"value": "left/out", "other": "right/out"}, "out": ["out"]},
        },
    })
    runner = counting_runner(lambda p, j: {"out": sum(v for v in j.values() if isinstance(v, int))})
    outputs = WorkflowEngine(workflow, runner, parallel=True).run({"seed": 5})
    assert outputs == {"final": 10}
    assert len(runner.calls) == 3


def test_when_guard_skips_scattered_step():
    """`when` + `scatter`: a false guard skips the whole scatter (null outputs)."""
    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"go": "boolean", "values": "int[]"},
        "outputs": {"all": {"type": "Any", "outputSource": "per_value/out"}},
        "steps": {
            "per_value": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                          "when": "$(inputs.go)",
                          "in": {"go": "go", "value": "values"}, "out": ["out"]},
        },
    }
    runner = counting_runner(lambda p, j: {"out": j["value"] * 10})
    skipped = WorkflowEngine(make_workflow(doc), runner).run({"go": False, "values": [1, 2]})
    assert skipped == {"all": None}
    assert len(runner.calls) == 0

    runner = counting_runner(lambda p, j: {"out": j["value"] * 10})
    ran = WorkflowEngine(make_workflow(doc), runner, parallel=True).run(
        {"go": True, "values": [1, 2, 3]})
    assert ran == {"all": [10, 20, 30]}
    assert len(runner.calls) == 3


def test_merge_flattened_workflow_outputs_across_scatters():
    """Workflow outputs with linkMerge: merge_flattened combine scatter arrays."""
    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "MultipleInputFeatureRequirement"}],
        "inputs": {"a": "int[]", "b": "int[]"},
        "outputs": {
            "flat": {"type": "Any", "outputSource": ["left/out", "right/out"],
                     "linkMerge": "merge_flattened"},
            "nested": {"type": "Any", "outputSource": ["left/out", "right/out"]},
        },
        "steps": {
            "left": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                     "in": {"value": "a"}, "out": ["out"]},
            "right": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                      "in": {"value": "b"}, "out": ["out"]},
        },
    }
    runner = counting_runner(lambda p, j: {"out": j["value"]})
    outputs = WorkflowEngine(make_workflow(doc), runner, parallel=True).run(
        {"a": [1, 2], "b": [3]})
    assert outputs["flat"] == [1, 2, 3]
    assert outputs["nested"] == [[1, 2], [3]]


def nested_scatter_workflow():
    """A fig1-style workload: scatter over a two-step subworkflow, plus a side scatter."""
    child = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"value": "Any"},
        "outputs": {"result": {"type": "Any", "outputSource": "second/out"}},
        "steps": {
            "first": {"run": dict(SIMPLE_TOOL), "in": {"value": "value"}, "out": ["out"]},
            "second": {"run": dict(SIMPLE_TOOL), "in": {"value": "first/out"}, "out": ["out"]},
        },
    }
    return make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "SubworkflowFeatureRequirement"}],
        "inputs": {"values": "int[]"},
        "outputs": {"all": {"type": "Any", "outputSource": "pipe/result"},
                    "side": {"type": "Any", "outputSource": "extra/out"}},
        "steps": {
            "pipe": {"run": child, "scatter": "value",
                     "in": {"value": "values"}, "out": ["result"]},
            "extra": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                      "in": {"value": "values"}, "out": ["out"]},
        },
    })


def test_scatter_over_subworkflow_expands_per_shard_subgraphs():
    def increment(process, job_order):
        return {"out": job_order["value"] + 1}

    runner = counting_runner(increment)
    engine = WorkflowEngine(nested_scatter_workflow(), runner)
    outputs = engine.run({"values": [10, 20]})
    # Each shard runs first(+1) then second(+1): 10 -> 12, 20 -> 22.
    assert outputs["all"] == [12, 22]
    assert outputs["side"] == [11, 21]
    # Six jobs: two shards of the two-step subworkflow, two of the side step;
    # each shard's second step ran on its first step's output.
    assert sorted(job["value"] for _tool, job in runner.calls) == [10, 10, 11, 20, 20, 21]
    # Inner steps are first-class nodes, namespaced per shard.
    pipe_nodes = {node for node in engine.node_states if node.startswith("pipe[")}
    assert pipe_nodes == {f"pipe[{index}]{suffix}" for index in (0, 1)
                          for suffix in ("/first", "/second", "@out")}
    assert {engine.node_states[node] for node in pipe_nodes} == {"done"}


def test_parallel_worker_threads_never_exceed_max_workers():
    """Acceptance: one shared bounded pool — scatter inside parallel steps and
    subworkflows never multiplies threads beyond max_workers."""
    import time

    max_workers = 3
    active = {"now": 0, "peak": 0, "dag_threads_peak": 0}
    lock = threading.Lock()

    def runner(process, job_order, runtime_context):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
            dag_threads = sum(1 for t in threading.enumerate()
                              if t.name.startswith(("cwl-dag", "cwl-workflow", "cwl-scatter")))
            active["dag_threads_peak"] = max(active["dag_threads_peak"], dag_threads)
        time.sleep(0.02)
        with lock:
            active["now"] -= 1
        return {"out": job_order["value"]}

    engine = WorkflowEngine(nested_scatter_workflow(), runner,
                            parallel=True, max_workers=max_workers)
    engine.run({"values": list(range(8))})
    # 8 subworkflow shards (2 steps each) + 8 side shards = 24 jobs total.
    assert active["peak"] <= max_workers, "live workers exceeded the global cap"
    assert active["dag_threads_peak"] <= max_workers, "scheduler spawned nested pools"
    assert active["peak"] >= 2, "parallel execution should overlap"


def test_scatter_shards_share_the_pool_with_other_steps():
    """Shards of one scatter and an independent step interleave (no barrier
    monopolising the pool)."""
    import time

    seen = []
    lock = threading.Lock()

    def runner(process, job_order, runtime_context):
        with lock:
            seen.append(job_order.get("value"))
        time.sleep(0.02)
        return {"out": job_order.get("value")}

    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"values": "int[]", "solo": "int"},
        "outputs": {"all": {"type": "Any", "outputSource": "fan/out"},
                    "one": {"type": "Any", "outputSource": "single/out"}},
        "steps": {
            "fan": {"run": dict(SIMPLE_TOOL), "scatter": "value",
                    "in": {"value": "values"}, "out": ["out"]},
            "single": {"run": dict(SIMPLE_TOOL), "in": {"value": "solo"}, "out": ["out"]},
        },
    }
    outputs = WorkflowEngine(make_workflow(doc), runner, parallel=True,
                             max_workers=4).run({"values": [1, 2, 3, 4, 5, 6], "solo": 99})
    assert outputs["all"] == [1, 2, 3, 4, 5, 6]
    assert outputs["one"] == 99
    # The independent step must not be queued behind the entire scatter.
    assert seen.index(99) < len(seen) - 1


def test_when_false_skips_sourceless_steps_inside_subworkflow():
    """A false `when` on a subworkflow step must skip even child steps with no
    sources (they get an explicit edge to the ingress node — regression test)."""
    child = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"value": "Any"},
        "outputs": {"result": {"type": "Any", "outputSource": "orphan/out"}},
        "steps": {
            # No sources at all: ready at t=0 unless wired to the ingress.
            "orphan": {"run": dict(SIMPLE_TOOL),
                       "in": {"value": {"default": 41}}, "out": ["out"]},
        },
    }
    parent = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "SubworkflowFeatureRequirement"}],
        "inputs": {"go": "boolean", "seed": "int"},
        "outputs": {"final": {"type": "Any", "outputSource": "sub/result"}},
        "steps": {
            "sub": {"run": child, "when": "$(inputs.go)",
                    "in": {"go": "go", "value": "seed"}, "out": ["result"]},
        },
    })
    runner = counting_runner(lambda p, j: {"out": j["value"] + 1})
    outputs = WorkflowEngine(parent, runner).run({"go": False, "seed": 1})
    assert outputs == {"final": None}
    assert len(runner.calls) == 0, "skipped subworkflow interior must not execute"

    runner = counting_runner(lambda p, j: {"out": j["value"] + 1})
    outputs = WorkflowEngine(parent, runner, parallel=True).run({"go": True, "seed": 1})
    assert outputs == {"final": 42}
    assert len(runner.calls) == 1


def test_engine_exposes_graph_and_detects_cycles():
    from repro.cwl.errors import ValidationException

    engine = WorkflowEngine(linear_workflow(), counting_runner())
    description = engine.graph.describe()
    assert description["critical_path"] == ["first", "second"]

    cyclic = make_workflow({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"seed": "int"},
        "outputs": {},
        "steps": {
            "a": {"run": dict(SIMPLE_TOOL), "in": {"value": "b/out"}, "out": ["out"]},
            "b": {"run": dict(SIMPLE_TOOL), "in": {"value": "a/out"}, "out": ["out"]},
        },
    })
    with pytest.raises(ValidationException, match="cycle"):
        WorkflowEngine(cyclic, counting_runner()).run({"seed": 1})


def test_image_pipeline_workflow_with_real_tools(cwl_dir, tmp_path, small_image):
    """End-to-end: the paper's Listing 3 workflow through the workflow engine + real jobs."""
    from repro.cwl.runners.reference import ReferenceRunner

    workflow = load_document(cwl_dir / "image_pipeline.cwl")
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    result = runner.execute(workflow, {
        "input_image": {"class": "File", "path": small_image},
        "size": 24, "sepia": True, "radius": 1,
    })
    final = result.outputs["final_output"]
    assert final["basename"] == "blurred.png"
    from repro.imaging.png import read_png

    assert read_png(final["path"]).shape == (24, 24, 3)
