"""The pipelined scheduler core through the public API.

``Session(engine, pipeline=True, max_inflight=...)`` must be a pure
performance knob: canonical outputs identical to the thread-pool core on
both runner engines, per-stage timings surfaced on the result, journalled
runs resumable bit-identically, runaway jobs reaped (whole process groups)
by the asyncio subprocess path as by every engine's default launcher, and the Parsl engines' ``max_inflight``
capping the bridge's parked steps without changing results.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import pytest

import repro
from repro import api
from repro.cwl.canonical import canonical_outputs
from repro.cwl.errors import JobTimeout, unwrap_failure
from repro.cwl.job import JobResult
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.testing.generator import generate_workflow

PARITY_SEEDS = (101, 105, 108)  # scatter/subworkflow/when coverage varies


def run_reference(workdir, doc, order, **options):
    os.makedirs(workdir, exist_ok=True)
    return api.run(load_document(dict(doc)), dict(order), engine="reference",
                   runtime_context=RuntimeContext(basedir=str(workdir)),
                   parallel=True, max_workers=4, **options)


# ---------------------------------------------------------------- timings

def test_stage_timings_surface_only_with_pipeline(tmp_path):
    case = generate_workflow(PARITY_SEEDS[0])
    plain = run_reference(tmp_path / "plain", case.doc, case.job)
    assert plain.stage_timings is None

    piped = run_reference(tmp_path / "piped", case.doc, case.job,
                          pipeline=True, max_inflight=8)
    timings = piped.stage_timings
    assert timings is not None
    assert set(timings) >= {"stage_s", "exec_s", "collect_s",
                            "nodes", "tiny_nodes", "tiny_batches"}
    assert timings["nodes"] + timings["tiny_nodes"] > 0


def test_session_accepts_pipeline_keywords(tmp_path):
    case = generate_workflow(PARITY_SEEDS[0])
    with api.Session(engine="reference", pipeline=True, max_inflight=4,
                     runtime_context=RuntimeContext(basedir=str(tmp_path)),
                     max_workers=4) as session:
        result = session.run(load_document(dict(case.doc)), dict(case.job))
    assert result.status == "success"
    assert result.stage_timings is not None


# ----------------------------------------------------------------- parity

@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_pipeline_outputs_match_threadpool_core(seed, tmp_path):
    case = generate_workflow(seed)
    baseline = run_reference(tmp_path / "threadpool", case.doc, case.job)
    # max_inflight=2 stresses backpressure without changing semantics.
    piped = run_reference(tmp_path / "pipeline", case.doc, case.job,
                          pipeline=True, max_inflight=2)
    assert canonical_outputs(piped.outputs) == canonical_outputs(baseline.outputs)
    assert piped.node_states == baseline.node_states


def test_toil_engine_pipeline_parity(tmp_path):
    case = generate_workflow(PARITY_SEEDS[1])

    def run_toil(workdir, **options):
        os.makedirs(workdir, exist_ok=True)
        return api.run(
            load_document(dict(case.doc)), dict(case.job), engine="toil",
            runtime_context=RuntimeContext(basedir=str(workdir)),
            job_store_dir=str(workdir / "jobstore"),
            destroy_job_store_on_close=True, max_workers=4, **options)

    baseline = run_toil(tmp_path / "threadpool")
    piped = run_toil(tmp_path / "pipeline", pipeline=True, max_inflight=3)
    assert canonical_outputs(piped.outputs) == canonical_outputs(baseline.outputs)
    assert piped.stage_timings is not None


def test_parsl_bridge_max_inflight_bounds_submissions(tmp_path):
    case = generate_workflow(PARITY_SEEDS[2])

    def run_parsl(workdir, **options):
        os.makedirs(workdir, exist_ok=True)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            return api.run(
                load_document(dict(case.doc)), dict(case.job),
                engine="parsl-workflow",
                config=repro.thread_config(max_threads=4,
                                           run_dir=str(workdir / "runinfo")),
                **options)
        finally:
            os.chdir(cwd)

    eager = run_parsl(tmp_path / "eager")
    throttled = run_parsl(tmp_path / "throttled", max_inflight=1)
    assert canonical_outputs(throttled.outputs) == canonical_outputs(eager.outputs)


def test_parsl_bridge_max_inflight_caps_the_parked_steps(tmp_path, monkeypatch):
    """The bridge's steps park on their futures, at most ``max_inflight`` of
    them unfinished at once: each future finishes on a pool thread, from
    more threads than cores, and the dispatch loop resumes its step, which
    then releases its successors.  Every step runs once."""
    from concurrent.futures import Future, ThreadPoolExecutor
    import sys
    import threading

    from repro.core import workflow_bridge

    steps, max_inflight = 60, 4
    lock = threading.Lock()
    unfinished = peak = 0
    resumed = []

    def finish(future):
        # Counted out before the future is done, so a step resumed (and its
        # successors submitted) never finds it still counted.
        nonlocal unfinished
        with lock:
            unfinished -= 1
        future.set_result(0)

    def run_app(app, job_order, context, on_retry=None):
        nonlocal unfinished, peak
        future = Future()
        with lock:
            unfinished += 1
            peak = max(peak, unfinished)
        pool.submit(finish, future)
        yield future
        resumed.append(threading.current_thread())
        out = {"class": "File", "path": os.path.join(context.job_dir, "out.txt")}
        return JobResult({"out": out}, 0, [], context.job_dir)

    echo = {"class": "CommandLineTool", "baseCommand": "echo",
            "inputs": {"after": {"type": "File?"}}, "outputs": {"out": "stdout"},
            "stdout": "out.txt"}
    workflow = load_document({
        "cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
        "outputs": {"last": {"type": "File", "outputSource": f"s{steps - 1}/out"}},
        "steps": {f"s{index}": {"run": echo, "out": ["out"],
                                "in": {"after": f"s{index - 10}/out"} if index >= 10 else {}}
                  for index in range(steps)}})
    monkeypatch.setattr(workflow_bridge, "run_app", run_app)
    bridge = workflow_bridge.CWLWorkflowBridge(
        workflow, runtime_context=RuntimeContext(max_inflight=max_inflight,
                                                 basedir=str(tmp_path)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = bridge.run({})
    finally:
        sys.setswitchinterval(interval)
    assert outputs["last"]["path"].endswith(os.path.join(f"s{steps - 1}", "out.txt"))
    assert len(resumed) == steps and set(resumed) == {threading.current_thread()}
    assert 1 <= peak <= max_inflight and unfinished == 0
    assert set(bridge.node_states.values()) == {"done"}


# ------------------------------------------------------- timeouts / reaping

@pytest.mark.parametrize("engine,options,marker", [
    ("reference", {"parallel": True, "max_workers": 2, "pipeline": True}, "31557"),
    ("reference", {}, "31558"), ("toil", {}, "31559"), ("parsl", {}, "31560")],
    ids=["reference-pipeline", "reference", "toil", "parsl"])
def test_timeout_reaps_the_whole_process_group(engine, options, marker, tmp_path,
                                               monkeypatch):
    """The asyncio core and every engine's default launcher reap a timed-out
    job's whole process group: ``sh -c 'sleep N & wait'`` leaves no
    ``sleep`` behind (``marker``, an improbable duration, is greppable)."""
    monkeypatch.chdir(tmp_path)
    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {}, "outputs": {},
        "steps": {"runaway": {
            "run": {"class": "CommandLineTool",
                    "baseCommand": ["/bin/sh", "-c", f"sleep {marker} & wait"],
                    "inputs": {}, "outputs": {}},
            "in": {}, "out": []}},
    }
    if engine == "parsl":
        options = {"config": repro.thread_config(max_threads=2,
                                                 run_dir=str(tmp_path / "runinfo"))}
    else:
        options = dict(options, runtime_context=RuntimeContext(basedir=str(tmp_path)))
    started = time.time()
    with pytest.raises(Exception) as excinfo:
        api.run(load_document(doc), {}, engine=engine, timeout_s=0.5, **options)
    assert isinstance(unwrap_failure(excinfo.value), JobTimeout)
    assert time.time() - started < 20, "reaping took pathologically long"
    # The grandchild (`sleep ... &`) dies with the group, not just the shell.
    deadline = time.time() + 5
    while time.time() < deadline:
        survivors = subprocess.run(["pgrep", "-f", f"sleep {marker}"],
                                   capture_output=True, text=True).stdout.strip()
        if not survivors:
            break
        time.sleep(0.1)
    assert not survivors, f"process group leaked pids: {survivors}"


# ------------------------------------------------------------------ resume

def test_resume_replays_bit_identically_under_pipeline(tmp_path):
    case = generate_workflow(PARITY_SEEDS[0])
    doc_path = tmp_path / "case.cwl"
    doc_path.write_text(json.dumps(case.doc))
    run_dir = str(tmp_path / "run")

    first = api.run(
        str(doc_path), dict(case.job), run_dir=run_dir, engine="reference",
        runtime_context=RuntimeContext(basedir=str(tmp_path / "wd1")),
        parallel=True, max_workers=4, pipeline=True, max_inflight=4)
    assert first.status == "success"

    resumed = api.resume(
        run_dir, engine="reference",
        runtime_context=RuntimeContext(basedir=str(tmp_path / "wd2")),
        parallel=True, max_workers=4, pipeline=True, max_inflight=4)
    assert resumed.status == "success"
    assert canonical_outputs(resumed.outputs) == canonical_outputs(first.outputs)
    # Every completed job replays from the run-scoped cache.
    end_events = [e for e in resumed.events if e.kind == "end"]
    assert end_events and all(e.cache == "hit" for e in end_events)
