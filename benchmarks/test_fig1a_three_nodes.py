"""Figure 1a — image-processing workflow runtime on three nodes.

The paper's distributed configuration: three 48-core nodes managed by Slurm.

* ``cwltool --parallel``        → ReferenceRunner (parallel threads; cwltool has no
                                  multi-node mode, matching the paper's setup where it
                                  runs on one node of the allocation)
* ``toil-cwl-runner --batchSystem slurm`` → ToilStyleRunner over the *simulated* Slurm
                                  cluster: every task is a separate scheduler job
* Parsl-CWL (HighThroughputExecutor)      → CWLApps on an HTEX pilot block spanning the
                                  three simulated nodes (workers are real local processes)

The simulated cluster replaces the physical one (see DESIGN.md §substitutions); the
expected shape is linear scaling with Parsl-CWL fastest, Toil paying per-task
scheduler overhead.  The timings are recorded series; the shape is asserted on
the counts it stands for: the cluster submissions each runner makes (one per
task for Toil, one pilot block for Parsl) and the jobs each runs.
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

import repro
from repro.cluster.nodes import NodeInventory
from repro.cluster.scheduler import SimulatedSlurmCluster
from repro.core import CWLApp
from repro.cwl.runners.toil.batch import SlurmBatchSystem
from repro.cwl.runtime import RuntimeContext

IMAGE_COUNTS = [2, 4, 8]
NODES = 3
CORES_PER_NODE = 8          # scaled down from the paper's 48 to stay laptop-friendly
WORKERS_PER_NODE = 2
FIGURE = "Figure 1a (three nodes): workflow runtime [s] vs number of images"
#: Tools per image in scatter_images.cwl (resize, filter, blur).
TOOLS_PER_IMAGE = 3

#: (runner kind, image count) -> ``{"submissions": ..., "jobs": ...}``: what
#: the simulated cluster was asked to run (``None`` without one) and the
#: jobs the run ran.
COUNTS = {}


def make_cluster() -> SimulatedSlurmCluster:
    return SimulatedSlurmCluster(NodeInventory.homogeneous(NODES, cores=CORES_PER_NODE))


def run_reference(workflow_path, job_order, workdir):
    result = repro.api.run(str(workflow_path), job_order, engine="reference",
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           parallel=True, max_workers=NODES * WORKERS_PER_NODE)
    assert len(result.outputs["final_outputs"]) == len(job_order["input_images"])
    return {"submissions": None, "jobs": result.jobs_run}


def run_toil_slurm(workflow_path, job_order, workdir):
    cluster = make_cluster()
    try:
        result = repro.api.run(
            str(workflow_path), job_order, engine="toil",
            job_store_dir=str(workdir / "jobstore"),
            batch_system=SlurmBatchSystem(cluster=cluster),
            runtime_context=RuntimeContext(basedir=str(workdir)),
            max_workers=NODES * WORKERS_PER_NODE,
            destroy_job_store_on_close=True,
        )
        assert len(result.outputs["final_outputs"]) == len(job_order["input_images"])
        return {"submissions": len(cluster.job_states()), "jobs": result.jobs_run}
    finally:
        cluster.shutdown()


def run_parsl_htex(cwl_dir, job_order, workdir):
    cluster = make_cluster()
    previous = os.getcwd()
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    dfk = repro.load(repro.htex_config(nodes=NODES, workers_per_node=WORKERS_PER_NODE,
                                       cores_per_node=CORES_PER_NODE, cluster=cluster,
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
        return {"submissions": len(cluster.job_states()),
                "jobs": dfk.task_summary().get("exec_done", 0)}
    finally:
        repro.clear()
        cluster.shutdown()
        os.chdir(previous)


RUNNERS = {
    "cwltool-like (--parallel)": "reference",
    "toil-like (slurm)": "toil",
    "parsl-cwl (HTEX, 3 nodes)": "parsl",
}


@pytest.mark.parametrize("count", IMAGE_COUNTS)
@pytest.mark.parametrize("series", list(RUNNERS))
def test_fig1a_three_nodes(benchmark, series, count, image_workload, cwl_dir, tmp_path,
                           series_recorder):
    job_order = image_workload(count)
    kind = RUNNERS[series]

    def run():
        if kind == "reference":
            return run_reference(cwl_dir / "scatter_images.cwl", dict(job_order),
                                 tmp_path / "ref")
        if kind == "toil":
            return run_toil_slurm(cwl_dir / "scatter_images.cwl", dict(job_order),
                                  tmp_path / "toil")
        return run_parsl_htex(cwl_dir, dict(job_order), tmp_path / "parsl")

    COUNTS[kind, count] = benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record(FIGURE, series, count, benchmark.stats.stats.mean)


def measured(kind):
    """``{image count: counts}`` of one runner, or a skip when none ran."""
    counts = {count: COUNTS[kind, count] for count in IMAGE_COUNTS if (kind, count) in COUNTS}
    if not counts:
        pytest.skip("benchmarks did not run")
    return counts


def test_fig1a_shape_toil_pays_per_task_scheduler_overhead():
    """Shape check: the Toil-like runner submits one scheduler job per task, while
    Parsl-CWL submits one pilot block whatever the workload."""
    for count, counts in measured("toil").items():
        assert counts["submissions"] == TOOLS_PER_IMAGE * count, (count, counts)
    assert {counts["submissions"] for counts in measured("parsl").values()} == {1}


def test_fig1a_shape_runtime_grows_with_workload():
    """Shape check: each runner runs every tool of every image, so the work grows
    linearly with the image count."""
    for kind in RUNNERS.values():
        for count, counts in measured(kind).items():
            assert counts["jobs"] == TOOLS_PER_IMAGE * count, (kind, count, counts)
