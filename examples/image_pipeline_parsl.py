#!/usr/bin/env python3
"""The paper's image-processing workflow written in Parsl with imported CWL tools
(paper Listing 4).

A set of synthetic PNG images is generated, then each image is pushed through the
three-stage pipeline — resize, sepia filter, blur — by chaining CWLApps through
DataFutures.  All per-image pipelines run concurrently; Parsl interleaves stages
as their dependencies resolve.

Run from the repository root::

    python examples/image_pipeline_parsl.py [--images 8] [--executor threads|htex]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import shutil
import tempfile

import repro
from repro.imaging.synthetic import generate_image_files
from repro.parsl.dataflow.futures import AppFuture

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))
CWL_DIR = os.path.join(EXAMPLES_DIR, "cwl")


def process_img(resize_image: repro.CWLApp, filter_image: repro.CWLApp, blur_image: repro.CWLApp,
                image: str, index: int, size: int = 128, sepia: bool = True,
                radius: int = 1) -> AppFuture:
    """One instance of the three-stage pipeline, mirroring the paper's process_img()."""
    resized = resize_image(
        input_image=image,
        size=size,
        output_image=f"resized_{index:04d}.png",
    )
    filtered = filter_image(
        input_image=resized.outputs[0],
        sepia=sepia,
        output_image=f"filtered_{index:04d}.png",
    )
    blurred = blur_image(
        input_image=filtered.outputs[0],
        radius=radius,
        output_image=f"blurred_{index:04d}.png",
    )
    return blurred


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--images", type=int, default=8, help="number of synthetic images")
    parser.add_argument("--size", type=int, default=128, help="resize target")
    parser.add_argument("--executor", choices=("threads", "htex"), default="threads")
    args = parser.parse_args()

    # Configuration and executor setup (swap for a Perlmutter/site config on a real cluster).
    if args.executor == "htex":
        repro.load(repro.htex_config(nodes=3, workers_per_node=4))
    else:
        repro.load(repro.thread_config(max_threads=8))

    cwd = os.getcwd()
    workdir = tempfile.mkdtemp(prefix="repro-image-pipeline-")
    os.chdir(workdir)

    try:
        # Creating CWLApps from the CommandLineTool definitions.
        resize_image = repro.CWLApp(os.path.join(CWL_DIR, "resize_image.cwl"))
        filter_image = repro.CWLApp(os.path.join(CWL_DIR, "filter_image.cwl"))
        blur_image = repro.CWLApp(os.path.join(CWL_DIR, "blur_image.cwl"))

        # Workload: synthetic images standing in for the paper's photo directory.
        images = generate_image_files("input_images", args.images, width=96, height=96)

        # Start an instance of the workflow for every image.
        final_imgs = [
            process_img(resize_image, filter_image, blur_image, image, index, size=args.size)
            for index, image in enumerate(images)
        ]

        # Wait for results.
        concurrent.futures.wait(final_imgs, return_when=concurrent.futures.ALL_COMPLETED)
        produced = [future.outputs[0].result().filepath for future in final_imgs]
        print(f"processed {len(produced)} images in {workdir}")
        for path in produced[:5]:
            print("  ", path)
        if len(produced) > 5:
            print(f"   ... and {len(produced) - 5} more")
    finally:
        repro.clear()
        os.chdir(cwd)
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
