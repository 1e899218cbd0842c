"""Tests for api.plan() / Session.plan() and deterministic engine teardown."""

from __future__ import annotations

import gc
import os
import warnings

import pytest

from repro import api
from repro.cwl.runners.toil.jobstore import FileJobStore
from repro.cwl.runtime import RuntimeContext


# ------------------------------------------------------------------- planning

def test_plan_of_linear_workflow(cwl_dir):
    plan = api.plan(str(cwl_dir / "image_pipeline.cwl"))
    assert plan.kind == "Workflow"
    assert plan.node_count == 3
    assert plan.edge_count == 2
    assert plan.critical_path == ["resize_image", "filter_image", "blur_image"]
    assert plan.critical_path_length == 3
    assert plan.scatter_nodes() == []
    assert plan.max_parallelism() == 1


def test_plan_of_scatter_workflow(cwl_dir):
    plan = api.plan(str(cwl_dir / "scatter_images.cwl"))
    assert plan.scatter_nodes() == ["process_image"]
    (node,) = plan.nodes
    assert node["scatter"] is True and node["kind"] == "scatter"


def test_plan_of_single_tool(cwl_dir):
    plan = api.plan(str(cwl_dir / "echo.cwl"))
    assert plan.kind == "CommandLineTool"
    assert plan.node_count == 1 and plan.edge_count == 0


def test_plan_to_dict_roundtrips_to_json(cwl_dir):
    import json

    payload = json.loads(json.dumps(api.plan(str(cwl_dir / "image_pipeline.cwl")).to_dict()))
    assert payload["critical_path_length"] == 3
    assert {node["id"] for node in payload["nodes"]} == \
        {"resize_image", "filter_image", "blur_image"}


def test_session_plan_matches_module_plan(cwl_dir):
    with api.Session(engine="reference") as session:
        plan = session.plan(str(cwl_dir / "image_pipeline.cwl"))
    assert plan.to_dict() == api.plan(str(cwl_dir / "image_pipeline.cwl")).to_dict()
    with pytest.raises(RuntimeError, match="closed"):
        session.plan(str(cwl_dir / "image_pipeline.cwl"))


def test_execution_result_carries_the_plan(cwl_dir, tmp_path, small_image):
    result = api.run(str(cwl_dir / "image_pipeline.cwl"),
                     {"input_image": {"class": "File", "path": small_image},
                      "size": 16, "sepia": True, "radius": 1},
                     engine="reference",
                     runtime_context=RuntimeContext(basedir=str(tmp_path)))
    assert result.plan is not None
    assert result.plan["critical_path"] == ["resize_image", "filter_image", "blur_image"]
    assert result.plan["node_count"] == 3

    tool_result = api.run(str(cwl_dir / "echo.cwl"), {"message": "no plan"},
                          engine="reference",
                          runtime_context=RuntimeContext(basedir=str(tmp_path)))
    assert tool_result.plan is None


# --------------------------------------------------------- toil close behaviour

def test_toil_session_destroys_its_own_temp_job_store(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with api.Session(engine="toil",
                     runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
        session.run(str(cwl_dir / "echo.cwl"), {"message": "store lifecycle"})
        store_dir = session.engine.job_store.store_dir
        assert os.path.isdir(store_dir)
    assert not os.path.exists(store_dir), \
        "engine-created temp job store must be removed on Session close"


def test_toil_session_keeps_caller_supplied_job_store(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store_dir = tmp_path / "jobstore"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with api.Session(engine="toil", job_store_dir=str(store_dir),
                         runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
            session.run(str(cwl_dir / "echo.cwl"), {"message": "keep me"})
        del session
        gc.collect()
    assert store_dir.is_dir(), "caller-supplied job store must survive close"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], \
        "closing the session must close the kept store's job log"
    with FileJobStore(str(store_dir)) as reopened:
        assert [job.state for job in reopened.list_jobs()] == ["done"]

    with api.Session(engine="toil", job_store_dir=str(store_dir),
                     destroy_job_store_on_close=True,
                     runtime_context=RuntimeContext(basedir=str(tmp_path))) as session:
        session.run(str(cwl_dir / "echo.cwl"), {"message": "now destroy"})
    assert not store_dir.exists(), "destroy_job_store_on_close=True must remove it"


def test_toil_engine_close_is_idempotent(cwl_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = api.Session(engine="toil",
                          runtime_context=RuntimeContext(basedir=str(tmp_path)))
    session.run(str(cwl_dir / "echo.cwl"), {"message": "close twice"})
    session.close()
    session.close()
    session.engine.close()
