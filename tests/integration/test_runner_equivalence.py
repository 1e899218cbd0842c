"""Integration tests: the three execution paths produce equivalent results.

The paper's core claim is that a CWL workflow behaves the same whether it runs
through cwltool, Toil or the Parsl integration — only performance differs.
These tests run the same documents through all three paths on small inputs and
compare the outputs pixel-for-pixel / byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import CWLApp, CWLWorkflowBridge
from repro.cwl import ReferenceRunner, ToilStyleRunner, load_document
from repro.cwl.runtime import RuntimeContext
from repro.imaging.png import read_png


@pytest.fixture
def pipeline_inputs(small_image):
    return {"input_image": {"class": "File", "path": small_image},
            "size": 20, "sepia": True, "radius": 1}


def test_reference_and_toil_produce_identical_images(cwl_dir, tmp_path, pipeline_inputs):
    workflow = load_document(cwl_dir / "image_pipeline.cwl")

    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path / "ref")))
    ref_out = reference.execute(workflow, dict(pipeline_inputs)).outputs["final_output"]

    toil = ToilStyleRunner(job_store_dir=str(tmp_path / "jobstore"),
                           runtime_context=RuntimeContext(basedir=str(tmp_path / "toil")))
    toil_out = toil.execute(workflow, dict(pipeline_inputs)).outputs["final_output"]
    toil.close()

    assert np.array_equal(read_png(ref_out["path"]), read_png(toil_out["path"]))


def test_parsl_bridge_matches_reference_runner(cwl_dir, tmp_path, pipeline_inputs,
                                               parsl_threads):
    workflow = load_document(cwl_dir / "image_pipeline.cwl")
    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path / "ref")))
    ref_image = read_png(reference.execute(workflow, dict(pipeline_inputs))
                         .outputs["final_output"]["path"])

    bridge = CWLWorkflowBridge(str(cwl_dir / "image_pipeline.cwl"))
    bridge_out = bridge.run(dict(pipeline_inputs))
    bridge_image = read_png(bridge_out["final_output"]["path"])

    assert np.array_equal(ref_image, bridge_image)


def test_chained_cwlapps_match_reference_runner(cwl_dir, tmp_path, pipeline_inputs,
                                                parsl_threads, small_image):
    """The hand-written Parsl program (Listing 4 style) produces the same final image."""
    workflow = load_document(cwl_dir / "image_pipeline.cwl")
    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path / "ref")))
    ref_image = read_png(reference.execute(workflow, dict(pipeline_inputs))
                         .outputs["final_output"]["path"])

    resize = CWLApp(str(cwl_dir / "resize_image.cwl"))
    filt = CWLApp(str(cwl_dir / "filter_image.cwl"))
    blur = CWLApp(str(cwl_dir / "blur_image.cwl"))
    resized = resize(input_image=small_image, size=20, output_image="r.png")
    filtered = filt(input_image=resized.outputs[0], sepia=True, output_image="f.png")
    blurred = blur(input_image=filtered.outputs[0], radius=1, output_image="b.png")
    blurred.result()

    assert np.array_equal(ref_image, read_png(tmp_path / "b.png"))


def test_inline_python_and_js_expressions_agree(cwl_dir, tmp_path, parsl_threads):
    """capitalize_python.cwl (InlinePython via Parsl) and capitalize_js.cwl (JS via the
    reference runner) produce the same capitalised message (Fig. 2's functional core)."""
    message = "parsl and cwl together at last"

    js_tool = load_document(cwl_dir / "capitalize_js.cwl")
    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path / "js")))
    js_out = reference.execute(js_tool, {"message": message}).outputs["output"]
    with open(js_out["path"]) as handle:
        js_text = handle.read().strip()

    py_app = CWLApp(str(cwl_dir / "capitalize_python.cwl"))
    future = py_app(message=message, stdout="py.txt")
    future.result()
    py_text = (tmp_path / "py.txt").read_text().strip()

    assert js_text == py_text == "Parsl And Cwl Together At Last"


def test_scatter_workflow_counts_match_across_runners(cwl_dir, tmp_path, image_batch):
    workflow = load_document(cwl_dir / "scatter_images.cwl")
    job_order = {"input_images": [{"class": "File", "path": p} for p in image_batch],
                 "size": 12, "sepia": False, "radius": 1}

    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path / "ref")),
                                parallel=True, max_workers=4)
    ref_outputs = reference.execute(workflow, dict(job_order)).outputs["final_outputs"]

    toil = ToilStyleRunner(job_store_dir=str(tmp_path / "jobstore"),
                           runtime_context=RuntimeContext(basedir=str(tmp_path / "toil")),
                           max_workers=4)
    toil_outputs = toil.execute(workflow, dict(job_order)).outputs["final_outputs"]
    toil.close()

    assert len(ref_outputs) == len(toil_outputs) == len(image_batch)
    for ref_file, toil_file in zip(ref_outputs, toil_outputs):
        assert np.array_equal(read_png(ref_file["path"]), read_png(toil_file["path"]))
