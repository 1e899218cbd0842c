#!/usr/bin/env python3
"""Run the same CWL workflow with all three runners and compare wall-clock times.

This is a miniature, human-readable version of the paper's Figure 1 experiment:
the scatter-wrapped image-processing workflow is executed over N synthetic images
with

* the cwltool-like reference runner (``--parallel``),
* the Toil-like runner (single-machine batch system),
* the Parsl bridge (ThreadPoolExecutor), via the CWL Workflow bridge.

Run from the repository root::

    python examples/runner_comparison.py [--images 8]
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time

import repro
from repro import api
from repro.cwl.runtime import RuntimeContext
from repro.imaging.synthetic import generate_image_files

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))
CWL_DIR = os.path.join(EXAMPLES_DIR, "cwl")


def workload(images_dir: str, count: int) -> dict:
    images = generate_image_files(images_dir, count, width=96, height=96)
    return {
        "input_images": [{"class": "File", "path": path} for path in images],
        "size": 64,
        "sepia": True,
        "radius": 1,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--images", type=int, default=8)
    parser.add_argument("--workers", type=int, default=8)
    args = parser.parse_args()

    base = tempfile.mkdtemp(prefix="repro-runner-comparison-")
    try:
        timings = compare(base, args.images, args.workers)
    finally:
        shutil.rmtree(base)

    print(f"\n{args.images} images, {args.workers} workers:")
    for name, seconds in sorted(timings.items(), key=lambda item: item[1]):
        print(f"  {name:35s} {seconds:7.2f} s")


def compare(base: str, images: int, workers: int) -> dict:
    """Run the workflow on every runner under ``base``: ``{runner: seconds}``."""
    job_order = workload(os.path.join(base, "images"), images)
    workflow_path = os.path.join(CWL_DIR, "scatter_images.cwl")
    timings = {}

    # cwltool-like reference runner with --parallel, via the unified API.
    result = api.run(workflow_path, job_order, engine="reference",
                     runtime_context=RuntimeContext(basedir=os.path.join(base, "cwltool")),
                     parallel=True, max_workers=workers)
    timings["cwltool-like (--parallel)"] = result.wall_time_s

    # Toil-like runner on the single-machine batch system, via the unified API.
    result = api.run(workflow_path, job_order, engine="toil",
                     job_store_dir=os.path.join(base, "jobstore"),
                     runtime_context=RuntimeContext(basedir=os.path.join(base, "toil")),
                     max_workers=workers)
    timings["toil-like (single machine)"] = result.wall_time_s

    # Parsl integration: the same pipeline written as chained CWLApps, as the paper's
    # Listing 4 does, naming each image's outputs itself (engine="parsl-workflow" runs
    # scatter_images.cwl from its CWL definition instead).
    import concurrent.futures

    repro.load(repro.thread_config(max_threads=workers))
    cwd = os.getcwd()
    parsl_dir = os.path.join(base, "parsl")
    os.makedirs(parsl_dir, exist_ok=True)
    os.chdir(parsl_dir)
    try:
        resize = repro.CWLApp(os.path.join(CWL_DIR, "resize_image.cwl"))
        filt = repro.CWLApp(os.path.join(CWL_DIR, "filter_image.cwl"))
        blur = repro.CWLApp(os.path.join(CWL_DIR, "blur_image.cwl"))
        start = time.perf_counter()
        finals = []
        for index, image in enumerate(job_order["input_images"]):
            resized = resize(input_image=image["path"], size=job_order["size"],
                             output_image=f"resized_{index}.png")
            filtered = filt(input_image=resized.outputs[0], sepia=job_order["sepia"],
                            output_image=f"filtered_{index}.png")
            finals.append(blur(input_image=filtered.outputs[0], radius=job_order["radius"],
                               output_image=f"blurred_{index}.png"))
        concurrent.futures.wait(finals)
        if any(f.exception() is not None for f in finals):
            raise RuntimeError("one or more Parsl pipelines failed")
        timings["parsl-cwl (ThreadPoolExecutor)"] = time.perf_counter() - start
    finally:
        os.chdir(cwd)
        repro.clear()
    return timings


if __name__ == "__main__":
    main()
