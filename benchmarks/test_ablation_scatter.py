"""Ablation A4 — per-task overhead of the runner machinery at different scatter widths.

The Fig. 1 experiment scatters an entire three-stage sub-workflow; this ablation
isolates the per-task cost of each runner on the *cheapest possible* tool (echo)
so that runner overhead, not image processing, dominates.  Comparing the slope of
runtime vs scatter width across runners gives the per-task overhead the paper's
Figure 1 gap is made of.  The timings are recorded series; what is asserted is
the work each runner does per task, which is what the slope stands for: the
Parsl series submits one kernel task per message, the Toil series keeps at
least two job-store records (the job and its output file) per message.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.core import CWLApp
from repro.cwl.runtime import RuntimeContext

WIDTHS = [4, 16]
FIGURE = "Ablation A4: scatter of `echo` — runtime [s] vs scatter width"

SCATTER_ECHO = {
    "cwlVersion": "v1.2",
    "class": "Workflow",
    "requirements": [{"class": "ScatterFeatureRequirement"}],
    "inputs": {"messages": "string[]"},
    "outputs": {"outs": {"type": "File[]", "outputSource": "say/output"}},
    "steps": {
        "say": {
            "run": {
                "class": "CommandLineTool",
                "baseCommand": "echo",
                "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
                "outputs": {"output": "stdout"},
                "stdout": "echoed.txt",
            },
            "scatter": "message",
            "in": {"message": "messages"},
            "out": ["output"],
        }
    },
}


def job_order(width: int):
    return {"messages": [f"message number {i}" for i in range(width)]}


def run_reference(width, workdir):
    result = repro.api.run(dict(SCATTER_ECHO), job_order(width), engine="reference",
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           parallel=True, max_workers=8)
    assert len(result.outputs["outs"]) == width


def run_toil(width, workdir):
    result = repro.api.run(dict(SCATTER_ECHO), job_order(width), engine="toil",
                           job_store_dir=str(workdir / "jobstore"),
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           max_workers=8, destroy_job_store_on_close=True)
    assert len(result.outputs["outs"]) == width
    assert sum(result.details["job_store"].values()) >= 2 * width


def run_parsl(width, workdir, cwl_dir):
    previous = os.getcwd()
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    dfk = repro.load(repro.thread_config(max_threads=8, run_dir=str(workdir / "runinfo")))
    try:
        echo = CWLApp(str(cwl_dir / "echo.cwl"))
        futures = [echo(message=f"message number {i}", stdout=f"echo_{i}.txt")
                   for i in range(width)]
        assert all(f.result() == 0 for f in futures)
        assert sum(dfk.task_summary().values()) == width
    finally:
        repro.clear()
        os.chdir(previous)


SERIES = ["cwltool-like", "toil-like", "parsl-cwl"]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("series", SERIES)
def test_scatter_width_overhead(benchmark, series, width, tmp_path, cwl_dir, series_recorder):
    def run():
        if series == "cwltool-like":
            run_reference(width, tmp_path / "ref")
        elif series == "toil-like":
            run_toil(width, tmp_path / "toil")
        else:
            run_parsl(width, tmp_path / "parsl", cwl_dir)

    benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record_measured(FIGURE, series, width, benchmark)

