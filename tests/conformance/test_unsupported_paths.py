"""The unsupported-path error contract of the Parsl bridge.

Scattering over a value that is still a future, and a step output reduced by
``outputEval``, have no value before their step runs: both Parsl engines
must raise :class:`UnsupportedRequirement` — not a generic failure — naming
the offending step.  A scattered nested Workflow is not among them: every
engine runs it, with the corpus case's outputs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro import api
from repro.cwl.errors import UnsupportedRequirement, exit_class
from repro.testing.corpus import load_corpus, materialize_job_order

PARSL_ENGINES = ("parsl", "parsl-workflow")


@pytest.fixture
def scattered_subworkflow_case():
    """The corpus case is the single source of truth for this contract."""
    corpus = load_corpus()
    return next(case for case in corpus if case.id == "wf_scattered_subworkflow")


@pytest.fixture
def run_engine(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run(engine, process, job_order):
        options = {}
        if engine in PARSL_ENGINES:
            options["config"] = repro.thread_config(
                max_threads=2, run_dir=str(tmp_path / engine / "runinfo"))
        return api.run(process, dict(job_order), engine=engine, **options)

    return run


@pytest.mark.parametrize("engine", ("reference", "toil", *PARSL_ENGINES))
def test_every_engine_runs_scattered_subworkflows(
        scattered_subworkflow_case, run_engine, tmp_path, engine):
    """Each shard of the subworkflow writes its literally named file in its
    own directory, on the Parsl bridge as on the runners."""
    case = scattered_subworkflow_case
    job = materialize_job_order(case.job, tmp_path / "inputs")
    files = run_engine(engine, case.process, job).outputs["files"]
    assert [{"basename": value["basename"], "contents": Path(value["path"]).read_text()}
            for value in files] == \
        [{"basename": value["basename"], "contents": value["contents"]}
         for value in case.expect.outputs["files"]]


def test_scatter_over_future_width_is_unsupported_with_step_name(tmp_path, monkeypatch):
    """The bridge's other declared unsupported path: scattering over a value
    that is still a future at submission time."""
    monkeypatch.chdir(tmp_path)
    from repro.core.workflow_bridge import CWLWorkflowBridge
    from repro.cwl.loader import load_document

    echo_list_tool = {
        "class": "CommandLineTool",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "baseCommand": "echo",
        "inputs": {"text": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"out": {"type": "stdout"}},
        "stdout": "list.txt",
    }
    workflow = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"text": "string"},
        "outputs": {"files": {"type": "Any", "outputSource": "use/out"}},
        "steps": {
            "produce": {"run": dict(echo_list_tool), "in": {"text": "text"},
                        "out": ["out"]},
            "use": {"run": dict(echo_list_tool), "scatter": ["text"],
                    "in": {"text": "produce/out"},
                    "out": ["out"]},
        },
    }
    repro.load(repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")))
    try:
        bridge = CWLWorkflowBridge(load_document(workflow))
        with pytest.raises(UnsupportedRequirement) as excinfo:
            bridge.run({"text": "seed"})
        assert "'use'" in str(excinfo.value)
    finally:
        repro.clear()


def output_eval_workflow():
    """One step whose output is an ``outputEval``-reduced int, not a file."""
    count = {
        "class": "CommandLineTool",
        "baseCommand": ["bash", "-c", "echo 42 > numbers.txt"],
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {},
        "outputs": {"n": {"type": "int", "outputBinding": {
            "glob": "numbers.txt", "loadContents": True,
            "outputEval": "$(parseInt(self[0].contents))"}}},
    }
    return {"cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
            "outputs": {"n": {"type": "int", "outputSource": "count/n"}},
            "steps": {"count": {"run": count, "in": {}, "out": ["n"]}}}


def test_runner_engines_run_an_output_eval_step(run_engine):
    for engine in ("reference", "toil"):
        assert run_engine(engine, output_eval_workflow(), {}).outputs == {"n": 42}


@pytest.mark.parametrize("engine", PARSL_ENGINES)
def test_parsl_engines_refuse_an_output_eval_step_output(run_engine, engine):
    """The bridge passes file futures between steps; an ``outputEval`` value
    exists only after the step ran, so it is refused by name, not replaced
    by the matched file."""
    with pytest.raises(UnsupportedRequirement) as excinfo:
        run_engine(engine, output_eval_workflow(), {})
    message = str(excinfo.value)
    assert "'count'" in message and "['n']" in message and "outputEval" in message
    assert exit_class(excinfo.value) == "unsupported"
