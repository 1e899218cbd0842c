"""Fault-tolerance parity: retries, timeouts and partial results everywhere.

Every engine honours the same :class:`~repro.api.RetryPolicy`: deterministic
seeded backoff, attempt caps, never-retry failure classes; per-job
``timeout_s`` reaps runaway tools; ``on_error="continue"`` turns a failed
node into partial results instead of an aborted run.  Fault injection
(:mod:`repro.cwl.faults`) makes the transient failures deterministic.
"""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.cwl.errors import JobTimeout, exit_class, unwrap_failure
from repro.cwl.faults import FaultPlan, FaultSpec
from repro.cwl.journal import read_journal
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.utils.yamlio import dump_yaml

#: Engines that can run a bare CommandLineTool.
TOOL_ENGINES = ["reference", "toil", "parsl"]
#: Engines that can run a complete Workflow.
WORKFLOW_ENGINES = ["reference", "toil", "parsl", "parsl-workflow"]

ECHO_TOOL = {
    "class": "CommandLineTool", "baseCommand": "echo",
    "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
    "outputs": {"out": "stdout"}, "stdout": "echoed.txt",
}

SLEEP_TOOL = {
    "class": "CommandLineTool", "baseCommand": "sleep",
    "inputs": {"seconds": {"type": "string", "inputBinding": {"position": 1}}},
    "outputs": {},
}


def wrap_in_workflow(tool: dict) -> dict:
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string"},
        "outputs": {"out": {"type": "File", "outputSource": "only/out"}},
        "steps": {"only": {"run": dict(tool), "in": {"message": "message"},
                           "out": ["out"]}},
    }


def transient_plan(attempts: int = 1, exit_code: int = 11) -> FaultPlan:
    return FaultPlan(specs=(FaultSpec(job="*", exit_code=exit_code,
                                      attempts=attempts),), seed=7)


@pytest.fixture
def run_engine(tmp_path_factory, monkeypatch):
    """Run a process through one engine in an isolated working directory."""

    def run(engine, process, job_order, hooks=None, **fault_options):
        workdir = tmp_path_factory.mktemp(engine.replace("-", "_"))
        monkeypatch.chdir(workdir)
        options = dict(fault_options)
        if engine in ("reference", "toil"):
            options["runtime_context"] = RuntimeContext(basedir=str(workdir))
        if engine == "toil":
            options["job_store_dir"] = str(workdir / "jobstore")
            options["destroy_job_store_on_close"] = True
        if engine in ("parsl", "parsl-workflow"):
            options["config"] = repro.thread_config(
                max_threads=4, run_dir=str(workdir / "runinfo"))
        return api.run(load_document(dict(process)), dict(job_order),
                       engine=engine, hooks=hooks, **options)

    return run


def events_for(result, kind):
    return [event for event in result.events if event.kind == kind]


# ----------------------------------------------------- transient → success

@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_transient_tool_fault_is_retried_to_success(engine, run_engine):
    result = run_engine(
        engine, ECHO_TOOL, {"message": "survived"},
        retry_policy=api.RetryPolicy(max_attempts=3, backoff_s=0.01,
                                     max_backoff_s=0.02,
                                     retryable_exit_codes=(11,)),
        fault_plan=transient_plan())
    assert result.status == "success"
    with open(result.outputs["out"]["path"]) as handle:
        assert handle.read() == "survived\n"
    retries = events_for(result, "retry")
    assert [event.attempt for event in retries] == [1]
    assert retries[0].error and "11" in retries[0].error
    (end,) = events_for(result, "end")
    assert end.ok and end.attempt == 2
    assert result.retries() == 1


@pytest.mark.parametrize("engine", WORKFLOW_ENGINES)
def test_transient_workflow_fault_is_retried_to_success(engine, run_engine):
    result = run_engine(
        engine, wrap_in_workflow(ECHO_TOOL), {"message": "wf"},
        retry_policy=api.RetryPolicy(max_attempts=3, backoff_s=0.01,
                                     max_backoff_s=0.02,
                                     retryable_exit_codes=(11,)),
        fault_plan=transient_plan())
    assert result.status == "success"
    assert result.retries() == 1
    ends = events_for(result, "end")
    assert all(event.ok for event in ends)
    assert {event.attempt for event in ends} == {2}


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_retry_delays_are_deterministic_across_runs(engine, run_engine):
    """Two identical runs observe byte-identical backoff delays."""

    def delays():
        result = run_engine(
            engine, ECHO_TOOL, {"message": "same schedule"},
            retry_policy=api.RetryPolicy(max_attempts=4, backoff_s=0.01,
                                         max_backoff_s=0.05, seed=99,
                                         retryable_exit_codes=(11,)),
            fault_plan=transient_plan(attempts=2))
        return [event.duration_s for event in events_for(result, "retry")]

    first = delays()
    assert len(first) == 2
    assert delays() == first


# --------------------------------------------------------------- attempt cap

@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_attempt_cap_exhausts_and_fails(engine, run_engine):
    retried = []
    hooks = api.ExecutionHooks(on_job_retry=lambda e: retried.append(e.attempt))
    with pytest.raises(Exception) as excinfo:
        run_engine(
            engine, ECHO_TOOL, {"message": "doomed"}, hooks=hooks,
            retry_policy=api.RetryPolicy(max_attempts=2, backoff_s=0.01,
                                         max_backoff_s=0.02,
                                         retryable_exit_codes=(13,)),
            fault_plan=transient_plan(attempts=10 ** 6, exit_code=13))
    assert retried == [1]  # exactly one retry, then the cap
    assert exit_class(unwrap_failure(excinfo.value)) == "permanentFail"


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_unlisted_exit_codes_never_retry(engine, run_engine):
    retried = []
    hooks = api.ExecutionHooks(on_job_retry=lambda e: retried.append(e.attempt))
    with pytest.raises(Exception):
        run_engine(
            engine, ECHO_TOOL, {"message": "fatal"}, hooks=hooks,
            retry_policy=api.RetryPolicy(max_attempts=5, backoff_s=0.01,
                                         retryable_exit_codes=(99,)),
            fault_plan=transient_plan(attempts=10 ** 6, exit_code=13))
    assert retried == []


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_never_retry_classes_win_over_listed_errors(engine, run_engine):
    """Validation-class failures are final even if their name is listed."""
    bad_tool = {
        "class": "CommandLineTool", "baseCommand": "echo",
        "inputs": {"message": {"type": "string",
                               "inputBinding": {"position": 1,
                                                "valueFrom": "$(inputs.)"}}},
        "outputs": {},
    }
    retried = []
    hooks = api.ExecutionHooks(on_job_retry=lambda e: retried.append(e.attempt))
    with pytest.raises(Exception) as excinfo:
        run_engine(
            engine, bad_tool, {"message": "x"}, hooks=hooks,
            retry_policy=api.RetryPolicy(
                max_attempts=5, backoff_s=0.01,
                retryable_errors=("ExpressionError", "JavaScriptError",
                                  "ValidationException")))
    assert retried == []
    assert exit_class(unwrap_failure(excinfo.value)) in (
        "expressionError", "invalid")


# ------------------------------------------ one retry loop on the Parsl path

def counting_process(log_path, shape: str) -> dict:
    """A tool that appends one line to ``log_path`` per execution, then exits 3
    — bare, or as the only step of a workflow."""
    tool = {
        "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", f"echo ran >> {log_path}; exit 3"],
        "inputs": {"message": "string"},
        "outputs": {"out": "stdout"}, "stdout": "never.txt",
    }
    return dict(tool, cwlVersion="v1.2") if shape == "tool" else wrap_in_workflow(tool)


@pytest.mark.parametrize("policy,executions,expected_events", [
    (api.RetryPolicy(max_attempts=4, backoff_s=0, retryable_exit_codes=(3,)), 4,
     ["start", "retry 1", "retry 2", "retry 3", "end 4"]),
    # Under the default policy exit 3 is not retryable: one execution.
    (api.RetryPolicy(), 1, ["start", "end 1"]),
    (None, 1, ["start", "end 1"]),
])
@pytest.mark.parametrize("engine,shape", [
    ("parsl", "tool"), ("parsl", "workflow"), ("parsl-workflow", "workflow")])
def test_parsl_path_executes_a_failing_tool_exactly_max_attempts_times(
        engine, shape, policy, executions, expected_events, run_engine, tmp_path):
    """The tool runs ``max_attempts`` times and every attempt is an event.

    At the parent commit the kernel re-launched underneath the policy:
    ``Config(retries=2)`` turned these 4 executions into 12 (and the 1 into 3,
    reported as ``end(attempt=1)``).
    """
    log = tmp_path / "executions.log"
    seen = []
    hooks = api.ExecutionHooks(
        on_job_start=lambda e: seen.append("start"),
        on_job_retry=lambda e: seen.append(f"retry {e.attempt}"),
        on_job_end=lambda e: seen.append(f"end {e.attempt}"))
    with pytest.raises(Exception) as excinfo:
        run_engine(engine, counting_process(log, shape), {"message": "x"},
                   hooks=hooks, retry_policy=policy)
    assert exit_class(unwrap_failure(excinfo.value)) == "permanentFail"
    assert log.read_text() == "ran\n" * executions
    assert seen == expected_events


@pytest.mark.parametrize("engine,shape", [
    ("parsl", "tool"),
    *((engine, "workflow") for engine in WORKFLOW_ENGINES)])
def test_every_engine_journals_one_retry_record_per_reattempt(engine, shape, tmp_path,
                                                              monkeypatch):
    """Each re-attempt is one journal ``retry`` record on every engine,
    including a workflow on the Parsl engines, whose retries happen on the
    execution side and are journalled when the bridge drains the futures."""
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "executions.log"
    document = tmp_path / "fails.cwl"
    document.write_text(dump_yaml(dict(counting_process(log, shape), cwlVersion="v1.2")))
    run_dir = tmp_path / "run"
    if engine.startswith("parsl"):
        options = {"config": repro.thread_config(max_threads=2,
                                                 run_dir=str(tmp_path / "runinfo"))}
    else:
        options = {"runtime_context": RuntimeContext(basedir=str(tmp_path / "jobs"))}
    with pytest.raises(Exception):
        api.run(
            str(document), {"message": "x"}, run_dir=str(run_dir), engine=engine,
            retry_policy=api.RetryPolicy(max_attempts=4, backoff_s=0,
                                         retryable_exit_codes=(3,)), **options)
    assert log.read_text() == "ran\n" * 4
    retries = [r for r in read_journal(str(run_dir)) if r["kind"] == "retry"]
    assert [r["attempt"] for r in retries] == [1, 2, 3]


@pytest.mark.parametrize("kernel", ["parsl_threads", "parsl_htex_local"])
def test_a_worker_process_reports_retries_and_the_cache_outcome(kernel, request, tmp_path):
    """A tool that exits 75 once, then succeeds: its task's value carries the
    retry, the attempt and the cache outcome back from wherever it ran, so
    HTEX's worker processes report what the thread pool does."""
    request.getfixturevalue(kernel)
    marker = tmp_path / "failed-once"
    flaky = {"class": "CommandLineTool", "cwlVersion": "v1.2",
             "baseCommand": ["sh", "-c", f"[ -e {marker} ] || {{ touch {marker}; exit 75; }}"],
             "inputs": {}, "outputs": {}}
    seen = []
    hooks = api.ExecutionHooks(
        on_job_start=lambda e: seen.append("start"),
        on_job_retry=lambda e: seen.append(f"retry {e.attempt}"),
        on_job_end=lambda e: seen.append(f"end {e.attempt} {e.cache}"))
    result = api.run(flaky, {}, engine="parsl", hooks=hooks, cache_dir=str(tmp_path / "store"),
                     retry_policy=api.RetryPolicy(max_attempts=3, backoff_s=0,
                                                  retryable_exit_codes=(75,)))
    assert seen == ["start", "retry 1", "end 2 miss"]
    assert result.cache_stats == {"hits": 0, "misses": 1}


@pytest.mark.parametrize("kernel", ["parsl_threads", "parsl_htex_local"])
def test_a_failed_task_from_a_worker_process_reports_its_retries(kernel, request):
    """The error that ends a task carries the retries made before it."""
    request.getfixturevalue(kernel)
    fails = {"class": "CommandLineTool", "cwlVersion": "v1.2",
             "baseCommand": ["sh", "-c", "exit 75"], "inputs": {}, "outputs": {}}
    seen = []
    hooks = api.ExecutionHooks(
        on_job_start=lambda e: seen.append("start"),
        on_job_retry=lambda e: seen.append(f"retry {e.attempt} {e.error}"),
        on_job_end=lambda e: seen.append(f"end {e.attempt}"))
    with pytest.raises(Exception) as excinfo:
        api.run(fails, {}, engine="parsl", hooks=hooks,
                retry_policy=api.RetryPolicy(max_attempts=3, backoff_s=0,
                                             retryable_exit_codes=(75,)))
    assert exit_class(unwrap_failure(excinfo.value)) == "permanentFail"
    error = "tool '<tool>' failed with exit code 75 (command: sh -c exit 75)"
    assert seen == ["start", f"retry 1 {error}", f"retry 2 {error}", "end 3"]


# ------------------------------------------------------------------ timeouts

@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_timeout_reaps_the_job(engine, run_engine):
    with pytest.raises(Exception) as excinfo:
        run_engine(engine, SLEEP_TOOL, {"seconds": "30"}, timeout_s=0.5)
    failure = unwrap_failure(excinfo.value)
    assert exit_class(failure) == "workflowError"
    assert isinstance(failure, JobTimeout)


@pytest.mark.parametrize("engine", TOOL_ENGINES)
def test_a_tool_exiting_124_under_a_timeout_is_a_permanent_failure(engine, run_engine):
    """Exit 124 is the tool's own code, not a timeout, on every engine."""
    exits_124 = {"class": "CommandLineTool", "baseCommand": ["sh", "-c", "exit 124"],
                 "inputs": {}, "outputs": {}}
    with pytest.raises(Exception) as excinfo:
        run_engine(engine, exits_124, {}, timeout_s=30)
    failure = unwrap_failure(excinfo.value)
    assert not isinstance(failure, JobTimeout)
    assert exit_class(failure) == "permanentFail"


def test_timeout_is_retryable(run_engine):
    retried = []
    hooks = api.ExecutionHooks(on_job_retry=lambda e: retried.append(e.attempt))
    with pytest.raises(Exception):
        run_engine("reference", SLEEP_TOOL, {"seconds": "30"}, hooks=hooks,
                   timeout_s=0.3,
                   retry_policy=api.RetryPolicy(max_attempts=2, backoff_s=0.01,
                                                max_backoff_s=0.02))
    assert retried == [1]


# ----------------------------------------------------------- partial results

def branching_workflow() -> dict:
    """An independent good branch next to a failing chain."""
    fail_tool = {
        "class": "CommandLineTool", "baseCommand": ["sh", "-c", "exit 3"],
        "inputs": {"message": "string"}, "outputs": {},
    }
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string"},
        "outputs": {"good": {"type": "File", "outputSource": "ok/out"},
                    "poisoned": {"type": "Any", "outputSource": "after/out"}},
        "steps": {
            "ok": {"run": dict(ECHO_TOOL), "in": {"message": "message"},
                   "out": ["out"]},
            "bad": {"run": fail_tool, "in": {"message": "message"}, "out": []},
            "after": {"run": dict(ECHO_TOOL), "in": {"message": "message"},
                      "out": ["out"]},
        },
    }


@pytest.mark.parametrize("engine", ["reference", "toil"])
def test_on_error_continue_returns_partial_results(engine, run_engine):
    result = run_engine(engine, branching_workflow(), {"message": "partial"},
                        on_error="continue")
    assert result.status == "permanentFail"
    assert set(result.failures) == {"bad"}
    assert "exit code 3" in result.failures["bad"] \
        or "3" in result.failures["bad"]
    with open(result.outputs["good"]["path"]) as handle:
        assert handle.read() == "partial\n"


@pytest.mark.parametrize("engine", ["reference", "toil"])
def test_on_error_continue_poisons_downstream_nodes(engine, run_engine):
    doc = branching_workflow()
    del doc["steps"]["bad"]["out"]
    doc["steps"]["bad"]["run"]["outputs"] = {"out": "stdout"}
    doc["steps"]["bad"]["run"]["stdout"] = "never.txt"
    doc["steps"]["bad"]["out"] = ["out"]
    doc["steps"]["after"]["run"] = {
        "class": "CommandLineTool", "baseCommand": "cat",
        "inputs": {"data": {"type": "File", "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"}, "stdout": "copy.txt",
    }
    doc["steps"]["after"]["in"] = {"data": "bad/out"}
    result = run_engine(engine, doc, {"message": "branches"},
                        on_error="continue")
    assert result.status == "permanentFail"
    assert set(result.failures) == {"bad"}
    assert result.outputs["poisoned"] is None
    with open(result.outputs["good"]["path"]) as handle:
        assert handle.read() == "branches\n"
    states = result.node_states
    assert states and any(state == "skipped" for state in states.values())


def test_on_error_continue_on_the_parsl_bridge(run_engine):
    result = run_engine("parsl-workflow", branching_workflow(),
                        {"message": "bridge"}, on_error="continue")
    assert result.status == "permanentFail"
    assert "bad" in result.failures
    # `ok` and `after` both write echoed.txt: two files, one per step.
    good, after = result.outputs["good"]["path"], result.outputs["poisoned"]["path"]
    assert good != after
    for path in (good, after):
        with open(path) as handle:
            assert handle.read() == "bridge\n"


def test_on_error_rejects_unknown_mode(run_engine):
    with pytest.raises(ValueError, match="on_error"):
        run_engine("reference", wrap_in_workflow(ECHO_TOOL), {"message": "x"},
                   on_error="ignore")
