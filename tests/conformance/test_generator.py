"""The property-based workflow generator: determinism, bounds, validity."""

from __future__ import annotations

import pytest

from repro.cwl.graph import build_graph
from repro.cwl.loader import load_document
from repro.cwl.validate import ensure_valid
from repro.testing.generator import (
    DEFAULT_SUITE_SIZE,
    GeneratedWorkflow,
    generate_suite,
    generate_workflow,
)

from tests.conformance.conftest import TIER_SEED


@pytest.mark.parametrize("seed", [TIER_SEED + offset for offset in range(6)])
def test_same_seed_same_workflow(seed):
    """The flakiness guard: byte-identical documents and job orders per seed."""
    first = generate_workflow(seed)
    second = generate_workflow(seed)
    assert first.doc == second.doc
    assert first.job == second.job
    assert first.features == second.features


def test_different_seeds_differ():
    suite = generate_suite(10, base_seed=TIER_SEED)
    docs = [workflow.doc for workflow in suite]
    assert any(docs[0] != other for other in docs[1:]), \
        "ten seeds produced ten identical workflows"


def test_generated_documents_validate_and_build_graphs(generated_suite):
    for workflow in generated_suite:
        process = load_document(dict(workflow.doc))
        ensure_valid(process)
        graph = build_graph(process)
        assert graph.nodes


def test_every_step_has_a_declared_source(generated_suite):
    """Step inputs only reference workflow inputs or upstream step outputs."""
    for workflow in generated_suite:
        step_outputs = {f"{name}/{out}"
                        for name, step in workflow.doc["steps"].items()
                        for out in step["out"]}
        for name, step in workflow.doc["steps"].items():
            for step_input in step["in"].values():
                # Plain `source` strings, or the wiring pass's mapping form
                # with one source or a linkMerge list of them.
                sources = step_input["source"] if isinstance(step_input, dict) else step_input
                for source in [sources] if isinstance(sources, str) else sources:
                    if "/" in source:
                        assert source in step_outputs, (workflow.id, name, source)
                    else:
                        assert source in workflow.doc["inputs"], (workflow.id, name, source)


def test_wiring_features_are_drawn_and_recorded():
    """valueFrom (own value and sibling), linkMerge both ways and step-input
    defaults all occur in the default suite, in the document and in `features`."""
    suite = generate_suite(DEFAULT_SUITE_SIZE)
    drawn = {feature for workflow in suite for feature in workflow.features}
    assert {"valueFrom", "valueFrom-sibling", "default",
            "merge_nested", "merge_flattened"} <= drawn
    for workflow in suite:
        step_inputs = [step_input for step in workflow.doc["steps"].values()
                       for step_input in step["in"].values()
                       if isinstance(step_input, dict)]
        assert sum("default" in si for si in step_inputs) == \
            workflow.features.count("default")
        assert sum(si.get("linkMerge") == "merge_flattened" for si in step_inputs) == \
            workflow.features.count("merge_flattened")
        assert sum('inputs.text' in si.get("valueFrom", "") for si in step_inputs) == \
            workflow.features.count("valueFrom-sibling")


def test_an_expression_tool_step_is_drawn_after_the_others():
    """The default suite draws ExpressionTool steps, each the workflow's last
    step, reading a File an earlier step made."""
    suite = generate_suite(DEFAULT_SUITE_SIZE)
    drawn = [workflow for workflow in suite if "expressionTool" in workflow.features]
    assert drawn
    for workflow in drawn:
        *earlier, last = workflow.doc["steps"].values()
        assert last["run"]["class"] == "ExpressionTool"
        assert last["in"]["f"].split("/")[0] in workflow.doc["steps"]
        assert all(step["run"]["class"] != "ExpressionTool" for step in earlier)


def test_width_and_depth_are_bounded():
    for seed in range(TIER_SEED, TIER_SEED + 30):
        workflow = generate_workflow(seed, max_width=3, max_depth=3)
        # sources <= 3, scatter <= 1, subworkflow <= 1, cats <= 2, guard <= 1,
        # expression tool <= 1
        assert len(workflow.doc["steps"]) <= 9
        for step in workflow.doc["steps"].values():
            run = step["run"]
            if run.get("class") == "Workflow":
                # Nesting stops at one level.
                assert all(child["run"].get("class") == "CommandLineTool"
                           for child in run["steps"].values())


def test_job_order_satisfies_workflow_inputs(generated_suite):
    for workflow in generated_suite:
        assert set(workflow.job) == set(workflow.doc["inputs"])


def test_suite_size_and_ids():
    suite = generate_suite(DEFAULT_SUITE_SIZE)
    assert len(suite) >= 20  # acceptance: >= 20 generated workflows per CI run
    ids = [workflow.id for workflow in suite]
    assert len(set(ids)) == len(ids)
    assert all(isinstance(workflow, GeneratedWorkflow) for workflow in suite)


def test_bounds_are_validated():
    with pytest.raises(ValueError):
        generate_workflow(1, max_width=0)
    with pytest.raises(ValueError):
        generate_workflow(1, max_depth=0)


# ------------------------------------------------------------- layered DAGs

def test_layered_dag_structure_is_deterministic_and_scales_to_10k():
    from repro.testing.generator import layered_dag_structure

    structure = layered_dag_structure(10_000, seed=3)
    assert structure == layered_dag_structure(10_000, seed=3)
    assert len(structure) == 10_000
    names = [name for name, _deps in structure]
    assert len(set(names)) == 10_000
    produced = set()
    fanins = []
    for name, deps in structure:
        assert all(dep in produced for dep in deps), "dep from a later layer"
        produced.add(name)
        fanins.append(len(deps))
    assert max(fanins) <= 2
    assert any(fanins), "no edges at all"


def test_layered_dag_document_validates_and_builds_a_graph():
    from repro.testing.generator import generate_layered_dag

    case = generate_layered_dag(300, seed=5)
    assert case.doc == generate_layered_dag(300, seed=5).doc
    assert len(case.doc["steps"]) == 300
    workflow = load_document(case.doc)
    ensure_valid(workflow)
    graph = build_graph(workflow)
    # 300 steps plus the ingress/egress plumbing nodes.
    step_nodes = [n for n in graph.nodes.values() if n.kind == "step"]
    assert len(step_nodes) == 300
