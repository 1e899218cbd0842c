"""Figure 1b — image-processing workflow runtime on a single node.

The paper runs the scatter-wrapped resize→sepia→blur workflow over an increasing
number of images on one node (2×12-core CPUs) with three runners:

* ``cwltool --parallel``            → :class:`repro.cwl.runners.reference.ReferenceRunner` (parallel)
* ``toil-cwl-runner`` (single node) → :class:`repro.cwl.runners.toil.runner.ToilStyleRunner`
                                       with the single-machine batch system
* Parsl-CWL (ThreadPoolExecutor)    → chained :class:`repro.core.cwl_app.CWLApp` s, the
                                       program of Listing 4

Image counts are scaled down (the paper sweeps up to 1,000); the expected shape
is linear growth for all three runners with Parsl-CWL at or below cwltool
(the paper reports ≈1.5× at the largest point).  The timings are recorded
series; the shape is asserted on the count it stands for: the jobs each
runner runs, every tool of every image.
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

import repro
from repro.core import CWLApp
from repro.cwl.runtime import RuntimeContext

IMAGE_COUNTS = [2, 4, 8]
WORKERS = 8
FIGURE = "Figure 1b (single node): workflow runtime [s] vs number of images"
#: Tools per image in scatter_images.cwl (resize, filter, blur).
TOOLS_PER_IMAGE = 3

#: (runner kind, image count) -> the number of jobs the run ran.
JOBS = {}


def run_reference(workflow_path, job_order, workdir):
    result = repro.api.run(str(workflow_path), job_order, engine="reference",
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           parallel=True, max_workers=WORKERS)
    assert len(result.outputs["final_outputs"]) == len(job_order["input_images"])
    return result.jobs_run


def run_toil(workflow_path, job_order, workdir):
    result = repro.api.run(str(workflow_path), job_order, engine="toil",
                           job_store_dir=str(workdir / "jobstore"),
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           max_workers=WORKERS, destroy_job_store_on_close=True)
    assert len(result.outputs["final_outputs"]) == len(job_order["input_images"])
    return result.jobs_run


def run_parsl_threads(cwl_dir, job_order, workdir):
    previous = os.getcwd()
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    dfk = repro.load(repro.thread_config(max_threads=WORKERS,
                                         run_dir=str(workdir / "runinfo")))
    try:
        resize = CWLApp(str(cwl_dir / "resize_image.cwl"))
        filt = CWLApp(str(cwl_dir / "filter_image.cwl"))
        blur = CWLApp(str(cwl_dir / "blur_image.cwl"))
        finals = []
        for index, image in enumerate(job_order["input_images"]):
            resized = resize(input_image=image["path"], size=job_order["size"],
                             output_image=f"resized_{index}.png")
            filtered = filt(input_image=resized.outputs[0], sepia=job_order["sepia"],
                            output_image=f"filtered_{index}.png")
            blurred = blur(input_image=filtered.outputs[0], radius=job_order["radius"],
                           output_image=f"blurred_{index}.png")
            finals.append(blurred)
        concurrent.futures.wait(finals)
        assert all(f.exception() is None for f in finals)
        return dfk.task_summary().get("exec_done", 0)
    finally:
        repro.clear()
        os.chdir(previous)


RUNNERS = {
    "cwltool-like (--parallel)": "reference",
    "toil-like (single_machine)": "toil",
    "parsl-cwl (ThreadPool)": "parsl",
}


@pytest.mark.parametrize("count", IMAGE_COUNTS)
@pytest.mark.parametrize("series", list(RUNNERS))
def test_fig1b_single_node(benchmark, series, count, image_workload, cwl_dir, tmp_path,
                           series_recorder):
    job_order = image_workload(count)
    kind = RUNNERS[series]

    def run():
        if kind == "reference":
            return run_reference(cwl_dir / "scatter_images.cwl", dict(job_order),
                                 tmp_path / "ref")
        if kind == "toil":
            return run_toil(cwl_dir / "scatter_images.cwl", dict(job_order), tmp_path / "toil")
        return run_parsl_threads(cwl_dir, dict(job_order), tmp_path / "parsl")

    JOBS[kind, count] = benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record_measured(FIGURE, series, count, benchmark)


def test_fig1b_shape_every_series_runs_every_tool_of_every_image():
    """Shape check: each runner runs the three tools of every image, so the
    work grows linearly with the image count."""
    if not JOBS:
        pytest.skip("benchmarks did not run (e.g. --benchmark-skip)")
    for (kind, count), jobs in JOBS.items():
        assert jobs == TOOLS_PER_IMAGE * count, (kind, count, jobs)
