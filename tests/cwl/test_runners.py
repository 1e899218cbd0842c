"""Tests for the cwltool-like reference runner and the Toil-like runner,
driven through :meth:`~repro.cwl.runners.base.BaseRunner.execute`."""

from __future__ import annotations

import collections
import os

import pytest

from repro.cluster.nodes import NodeInventory
from repro.cluster.scheduler import SimulatedSlurmCluster
from repro.cwl.errors import JobFailure, ValidationException
from repro.cwl.loader import load_document, load_tool
from repro.cwl.runners.reference import ReferenceRunner
from repro.cwl.runners.toil.batch import SingleMachineBatchSystem, SlurmBatchSystem
from repro.cwl.runners.toil.jobstore import FileJobStore
from repro.cwl.runners.toil.runner import ToilStyleRunner
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import ExpressionTool


# ----------------------------------------------------------------- reference runner


def test_reference_runner_single_tool(cwl_dir, tmp_path):
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    result = runner.execute(load_tool(cwl_dir / "echo.cwl"), {"message": "ref"})
    assert result.status == "success"
    assert result.jobs_run == 1
    assert result.wall_time_s > 0
    with open(result.outputs["output"]["path"]) as handle:
        assert handle.read().strip() == "ref"


def test_reference_runner_validates_document(tmp_path):
    invalid = load_document({"cwlVersion": "v1.2", "class": "CommandLineTool",
                             "inputs": {}, "outputs": {}})
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    with pytest.raises(ValidationException):
        runner.execute(invalid, {})


def test_reference_runner_tool_failure_propagates(tmp_path):
    failing = load_document({"cwlVersion": "v1.2", "class": "CommandLineTool",
                             "baseCommand": "false", "inputs": {}, "outputs": {}})
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    with pytest.raises(JobFailure):
        runner.execute(failing, {})


def test_reference_runner_expression_tool(tmp_path):
    tool = load_document({
        "cwlVersion": "v1.2", "class": "ExpressionTool",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"x": "int"}, "outputs": {"doubled": "int", "label": "string"},
        "expression": "${ return {'doubled': inputs.x * 2, 'label': 'x' + inputs.x}; }",
    })
    assert isinstance(tool, ExpressionTool)
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    result = runner.execute(tool, {"x": 4})
    assert result.outputs == {"doubled": 8, "label": "x4"}


def test_reference_runner_counts_scatter_jobs(cwl_dir, tmp_path, image_batch):
    runner = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)),
                             parallel=True, max_workers=4)
    workflow = load_document(cwl_dir / "scatter_images.cwl")
    job_order = {
        "input_images": [{"class": "File", "path": p} for p in image_batch],
        "size": 16, "sepia": True, "radius": 1,
    }
    result = runner.execute(workflow, job_order)
    outputs = result.outputs["final_outputs"]
    assert len(outputs) == len(image_batch)
    assert all(o["basename"] == "blurred.png" for o in outputs)
    # 3 pipeline stages per image.
    assert result.jobs_run == 3 * len(image_batch)
    # Each scatter job ran in its own working directory (no filename collisions).
    assert len({o["path"] for o in outputs}) == len(image_batch)


def test_reference_runner_js_engine_not_cached_by_default(cwl_dir, tmp_path, monkeypatch):
    """The reference runner's cost model, by count: every JavaScript
    evaluation parses its source again and builds one library scope of its
    own, and no compiled evaluator is touched.  It stays that way on a process
    object the toil runner has compiled in between, which parses once."""
    from repro.cwl.expressions import compiler, evaluator

    counts = collections.Counter()

    def count_calls(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count_calls(compiler, "parse_expression")
    count_calls(evaluator, "LibraryScope")  # the uncached pipeline's own scopes
    count_calls(compiler, "shared_library_scope")
    tool = load_tool(cwl_dir / "capitalize_js.cwl")  # one JS argument, evaluated once per run

    def run_three(runner):
        counts.clear()
        for message in ("one two", "three four", "five six"):
            assert runner.execute(tool, {"message": message}).status == "success"

    reference = ReferenceRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    before = compiler.compile_cache_stats()
    run_three(reference)
    assert counts == {"parse_expression": 3, "LibraryScope": 3}
    assert compiler.compile_cache_stats() == before
    assert tool.compiled is None

    toil = ToilStyleRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    try:
        run_three(toil)
    finally:
        toil.close()
    assert counts == {"parse_expression": 1, "shared_library_scope": 1}
    assert tool.compiled is not None

    run_three(reference)
    assert counts == {"parse_expression": 3, "LibraryScope": 3}


# ------------------------------------------------------------------------ job store


def test_job_store_job_lifecycle(tmp_path):
    with FileJobStore(str(tmp_path / "store")) as store:
        job = store.create_job("step-a", requirements={"coresMin": 2},
                               payload={"inputs": {"x": 1}})
        assert job.state == "new"
        store.update_job(job, state="issued")
        store.update_job(job, state="done")
        reloaded = store.load_job(job.job_id)
        assert reloaded.state == "done"
        assert reloaded.requirements == {"coresMin": 2}
        assert store.stats()["done"] == 1
        store.delete_job(job.job_id)
        assert store.list_jobs() == []


def test_job_store_file_import_export(tmp_path):
    store = FileJobStore(str(tmp_path / "store"))
    source = tmp_path / "data.txt"
    source.write_text("precious bytes")
    file_id = store.import_file(str(source))
    assert store.has_file(file_id)
    # Importing identical content is idempotent (content-addressed).
    assert store.import_file(str(source)) == file_id
    exported = store.export_file(file_id, str(tmp_path / "out" / "copy.txt"))
    with open(exported) as handle:
        assert handle.read() == "precious bytes"
    store.destroy()
    assert not os.path.exists(store.store_dir)


# -------------------------------------------------------------------- batch systems


def test_single_machine_batch_system_runs_payloads():
    batch = SingleMachineBatchSystem(max_cores=2)
    futures = [batch.issue(f"job{i}", lambda i=i: i * 3) for i in range(5)]
    assert [f.result() for f in futures] == [0, 3, 6, 9, 12]
    assert batch.jobs_issued == 5
    batch.shutdown()


def test_slurm_batch_system_runs_payloads_through_cluster():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(2, cores=2))
    batch = SlurmBatchSystem(cluster=cluster)
    try:
        futures = [batch.issue(f"job{i}", lambda i=i: i + 1) for i in range(4)]
        assert sorted(f.result() for f in futures) == [1, 2, 3, 4]
        assert batch.jobs_issued == 4
    finally:
        batch.shutdown()
        cluster.shutdown()


def test_slurm_batch_system_propagates_payload_failure():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(1, cores=2))
    batch = SlurmBatchSystem(cluster=cluster)

    def bad():
        raise RuntimeError("payload exploded")

    try:
        with pytest.raises(RuntimeError):
            batch.issue("bad", bad).result()
    finally:
        batch.shutdown()
        cluster.shutdown()


# ------------------------------------------------------------------- toil-like runner


def test_toil_runner_single_tool_records_jobs(cwl_dir, tmp_path):
    runner = ToilStyleRunner(job_store_dir=str(tmp_path / "jobstore"),
                             runtime_context=RuntimeContext(basedir=str(tmp_path)))
    result = runner.execute(load_tool(cwl_dir / "echo.cwl"), {"message": "via toil"})
    assert result.status == "success"
    stats = runner.job_store.stats()
    assert stats.get("done") == 1
    assert stats["files"] >= 1  # the stdout file was imported into the store
    runner.close()


def test_toil_runner_failure_marks_job_failed(tmp_path):
    failing = load_document({"cwlVersion": "v1.2", "class": "CommandLineTool",
                             "baseCommand": "false", "inputs": {}, "outputs": {}})
    runner = ToilStyleRunner(job_store_dir=str(tmp_path / "jobstore"),
                             runtime_context=RuntimeContext(basedir=str(tmp_path)))
    with pytest.raises(JobFailure):
        runner.execute(failing, {})
    assert runner.job_store.stats().get("failed") == 1
    runner.close()


def test_toil_runner_workflow_imports_outputs(cwl_dir, tmp_path, small_image):
    runner = ToilStyleRunner(job_store_dir=str(tmp_path / "jobstore"),
                             runtime_context=RuntimeContext(basedir=str(tmp_path)),
                             max_workers=4, destroy_job_store_on_close=True)
    workflow = load_document(cwl_dir / "image_pipeline.cwl")
    result = runner.execute(workflow, {"input_image": {"class": "File", "path": small_image},
                                   "size": 16, "sepia": False, "radius": 1})
    final = result.outputs["final_output"]
    assert final["basename"] == "blurred.png"
    assert "jobStoreFileID" in final
    assert runner.job_store.has_file(final["jobStoreFileID"])
    assert result.jobs_run == 3
    runner.close()
    assert not os.path.exists(str(tmp_path / "jobstore"))


def test_toil_runner_with_slurm_batch_system(cwl_dir, tmp_path, small_image):
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(3, cores=4))
    runner = ToilStyleRunner(
        job_store_dir=str(tmp_path / "jobstore"),
        batch_system=SlurmBatchSystem(cluster=cluster),
        runtime_context=RuntimeContext(basedir=str(tmp_path)),
    )
    try:
        workflow = load_document(cwl_dir / "image_pipeline.cwl")
        result = runner.execute(workflow, {"input_image": {"class": "File", "path": small_image},
                                       "size": 16, "sepia": True, "radius": 1})
        assert result.outputs["final_output"]["basename"] == "blurred.png"
        # Every pipeline stage went through the simulated scheduler.
        assert len(cluster.job_states()) == 3
    finally:
        runner.close()
        cluster.shutdown()
