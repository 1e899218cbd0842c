"""The paths the Parsl bridge once refused, run on every engine.

Scattering over an upstream step's array, a step output reduced by
``outputEval`` and a scattered nested Workflow have their values only once
a step ran.  The bridge submits each step with the values its upstream steps
returned, so every engine runs them, with the same outputs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro import api
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


def scatter_over_upstream_workflow():
    """``split`` writes three lines, ``lines`` reads them as an array and
    ``say`` scatters over it: the width exists only once ``lines`` ran."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "InlineJavascriptRequirement"}],
        "inputs": {"text": "string"},
        "outputs": {"said": {"type": "File[]", "outputSource": "say/out"}},
        "steps": {
            "split": {"run": {"class": "CommandLineTool",
                              "baseCommand": ["python3", "-c",
                                              "import sys; print(*sys.argv[1].split(), sep='\\n')"],
                              "inputs": {"text": {"type": "string",
                                                  "inputBinding": {"position": 1}}},
                              "outputs": {"words": {"type": "string[]", "outputBinding": {
                                  "glob": "words.txt", "loadContents": True,
                                  "outputEval": "$(self[0].contents.trim().split('\\n'))"}}},
                              "stdout": "words.txt"},
                      "in": {"text": "text"}, "out": ["words"]},
            "say": {"run": {"class": "CommandLineTool", "baseCommand": "echo",
                            "inputs": {"word": {"type": "string",
                                                "inputBinding": {"position": 1}}},
                            "outputs": {"out": "stdout"}, "stdout": "said.txt"},
                    "scatter": "word", "in": {"word": "split/words"}, "out": ["out"]},
        },
    }


@pytest.mark.parametrize("engine", ("reference", "toil", *PARSL_ENGINES))
def test_every_engine_scatters_over_an_upstream_array(run_engine, engine):
    said = run_engine(engine, scatter_over_upstream_workflow(), {"text": "a b c"})
    assert [Path(value["path"]).read_text() for value in said.outputs["said"]] == \
        ["a\n", "b\n", "c\n"]


def output_eval_workflow():
    """``count``'s output is an ``outputEval``-reduced int, not a file, and
    ``double`` is submitted with it."""
    count = {
        "class": "CommandLineTool",
        "baseCommand": ["bash", "-c", "echo 42 > numbers.txt"],
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {},
        "outputs": {"n": {"type": "int", "outputBinding": {
            "glob": "numbers.txt", "loadContents": True,
            "outputEval": "$(parseInt(self[0].contents))"}}},
    }
    double = {
        "class": "CommandLineTool",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "baseCommand": "echo",
        "inputs": {"n": {"type": "int"}},
        "arguments": ["$(inputs.n * 2)"],
        "outputs": {"out": "stdout"}, "stdout": "doubled.txt",
    }
    return {"cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
            "outputs": {"n": {"type": "int", "outputSource": "count/n"},
                        "doubled": {"type": "File", "outputSource": "double/out"}},
            "steps": {"count": {"run": count, "in": {}, "out": ["n"]},
                      "double": {"run": double, "in": {"n": "count/n"}, "out": ["out"]}}}


@pytest.mark.parametrize("engine", ("reference", "toil", *PARSL_ENGINES))
def test_every_engine_passes_an_output_eval_value_to_the_next_step(run_engine, engine):
    outputs = run_engine(engine, output_eval_workflow(), {}).outputs
    assert outputs["n"] == 42
    assert Path(outputs["doubled"]["path"]).read_text() == "84\n"
