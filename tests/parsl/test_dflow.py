"""Tests for the DataFlowKernel: apps, dependencies, joins, task bookkeeping."""

from __future__ import annotations

import sys

import pytest

import repro
from repro.parsl import bash_app, join_app, python_app
from repro.parsl.config import Config
from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader
from repro.parsl.dataflow.states import States
from repro.parsl.errors import (
    BashExitFailure,
    ConfigurationError,
    DependencyError,
    MissingOutputs,
    NoDataFlowKernelError,
)
from repro.parsl.executors.threads import ThreadPoolExecutor


@python_app
def add(a, b):
    return a + b


@python_app
def fail_always():
    raise ValueError("intentional failure")


@bash_app
def echo_to_file(message, stdout=None):
    return f"echo {message}"


@bash_app
def failing_command():
    return "exit 9"


@join_app
def fan_out_sum(n):
    return [add(i, i) for i in range(n)]


def test_apps_require_loaded_dfk():
    with pytest.raises(NoDataFlowKernelError):
        add(1, 2)


def test_double_load_rejected(tmp_path):
    repro.load(repro.thread_config(run_dir=str(tmp_path / "r1")))
    with pytest.raises(ConfigurationError):
        repro.load(repro.thread_config(run_dir=str(tmp_path / "r2")))
    repro.clear()


def test_python_app_and_dependency_chain(parsl_threads):
    first = add(1, 2)
    second = add(first, 10)
    third = add(second, first)
    assert third.result() == 16
    assert first.task_record.status == States.exec_done


def test_bash_app_writes_stdout(parsl_threads, tmp_path):
    out = tmp_path / "echo.txt"
    future = echo_to_file("hello parsl", stdout=str(out))
    assert future.result() == 0
    assert out.read_text().strip() == "hello parsl"
    assert future.stdout == str(out)


def test_bash_app_failure_raises_exit_failure(parsl_threads):
    future = failing_command()
    with pytest.raises(BashExitFailure) as err:
        future.result()
    assert err.value.exitcode == 9


def test_bash_app_missing_outputs(parsl_threads, tmp_path):
    @bash_app
    def claims_outputs(outputs=None):
        return "true"

    future = claims_outputs(outputs=[repro.File(str(tmp_path / "never_created.txt"))])
    with pytest.raises(MissingOutputs):
        future.result()


def test_dependency_failure_propagates(parsl_threads):
    bad = fail_always()
    downstream = add(bad, 1)
    with pytest.raises(ValueError):
        bad.result()
    with pytest.raises(DependencyError) as err:
        downstream.result()
    assert downstream.task_record.status == States.dep_fail
    assert any(isinstance(e, ValueError) for e in err.value.dependent_exceptions)


def test_join_app_waits_for_inner_futures(parsl_threads):
    future = fan_out_sum(5)
    assert future.result() == [0, 2, 4, 6, 8]
    assert future.task_record.app_type == "join"


def test_join_app_plain_return_value(parsl_threads):
    @join_app
    def no_futures():
        return 42

    assert no_futures().result() == 42


def test_outputs_become_datafutures(parsl_threads, tmp_path):
    out_file = tmp_path / "made.txt"

    @bash_app
    def make_file(outputs=None):
        return f"echo content > {outputs[0]}"

    future = make_file(outputs=[repro.File(str(out_file))])
    assert len(future.outputs) == 1
    produced = future.outputs[0].result()
    assert produced.filepath == str(out_file)
    assert out_file.read_text().strip() == "content"


def test_datafuture_feeds_downstream_app(parsl_threads, tmp_path):
    upstream_out = tmp_path / "upstream.txt"

    @bash_app
    def produce(outputs=None):
        return f"echo 41 > {outputs[0]}"

    @python_app
    def consume(path_like):
        with open(path_like.filepath) as handle:
            return int(handle.read()) + 1

    producer = produce(outputs=[repro.File(str(upstream_out))])
    consumer = consume(producer.outputs[0])
    assert consumer.result() == 42


def test_futures_nested_in_containers_are_dependencies(parsl_threads, tmp_path):
    """A DataFuture two levels down (a CWL File[] inside the ``cwl_inputs``
    dict) is waited for, not handed to the app as a file that does not exist yet."""
    upstream_out = tmp_path / "slow.txt"

    @bash_app
    def produce_slowly(outputs=None):
        return f"sleep 0.3; echo 41 > {outputs[0]}"

    @python_app
    def consume(inputs_by_name):
        with open(inputs_by_name["files"][0].filepath) as handle:
            return int(handle.read()) + 1

    producer = produce_slowly(outputs=[repro.File(str(upstream_out))])
    assert consume({"files": [producer.outputs[0]]}).result() == 42


def test_a_failed_task_runs_once(parsl_threads):
    """The kernel never re-launches: retries belong to the run's RetryPolicy."""
    counter = {"attempts": 0}

    @python_app
    def always_bad():
        counter["attempts"] += 1
        raise RuntimeError("permanent")

    future = always_bad()
    with pytest.raises(RuntimeError, match="permanent"):
        future.result()
    assert counter["attempts"] == 1
    assert future.task_record.status == States.failed


@pytest.mark.parametrize("decorator", [python_app, bash_app, join_app])
def test_apps_take_no_cache_arguments(decorator):
    with pytest.raises(TypeError):
        decorator(cache=True)
    with pytest.raises(TypeError):
        decorator(ignore_for_cache=("x",))


def test_finished_records_leave_the_kernel(parsl_threads):
    """A long-lived kernel holds unfinished tasks only; the counts stay exact."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many hand-overs between the finishing workers
    try:
        futures = [add(i, 1) for i in range(200)]
        failed = fail_always()
        downstream = add(failed, 1)
        parsl_threads.wait_for_current_tasks(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert [f.result() for f in futures] == [i + 1 for i in range(200)]
    assert len(parsl_threads.tasks) == 0
    assert parsl_threads.task_summary() == {"exec_done": 200, "failed": 1, "dep_fail": 1}
    assert futures[0].task_record.status == States.exec_done
    assert isinstance(downstream.exception(), DependencyError)
    for attribute in ("memoizer", "data_manager", "monitoring", "checkpoint"):
        assert not hasattr(parsl_threads, attribute)


def test_submit_builds_a_functions_repr_only_when_it_has_no_name(parsl_threads):
    """A task is named by ``__name__``; a ``CWLApp`` call's repr holds the
    whole tool document, so building it per submission is pure waste."""

    class Counted:
        reprs = 0

        def __call__(self):
            return "ran"

        def __repr__(self):
            Counted.reprs += 1
            return "<counted>"

    named = Counted()
    named.__name__ = "named"
    future = parsl_threads.submit(named, (), {})
    assert future.result() == "ran"
    assert future.task_record.func_name == "named"
    assert Counted.reprs == 0
    unnamed = parsl_threads.submit(Counted(), (), {})
    assert unnamed.result() == "ran"
    assert unnamed.task_record.func_name == "<counted>"


def test_task_summary_and_wait(parsl_threads):
    futures = [add(i, i) for i in range(5)]
    parsl_threads.wait_for_current_tasks()
    summary = parsl_threads.task_summary()
    assert summary.get("exec_done", 0) >= 5
    assert all(f.done() for f in futures)


def test_executor_label_routing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = Config(
        executors=[ThreadPoolExecutor(label="alpha", max_threads=2),
                   ThreadPoolExecutor(label="beta", max_threads=2)],
        run_dir=str(tmp_path / "runinfo"),
    )
    repro.load(config)

    @python_app(executors=["beta"])
    def where_am_i():
        import threading

        return threading.current_thread().name

    @python_app(executors=["nonexistent"])
    def misrouted():
        return 1

    try:
        assert "parsl-worker" in where_am_i().result()
        future = misrouted()
        with pytest.raises(ConfigurationError):
            future.result()
    finally:
        repro.clear()


def test_duplicate_executor_labels_rejected(tmp_path):
    config = Config(executors=[ThreadPoolExecutor(label="x"), ThreadPoolExecutor(label="x")],
                    run_dir=str(tmp_path / "runinfo"))
    with pytest.raises(ConfigurationError):
        DataFlowKernel(config)


def test_submit_after_cleanup_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dfk = repro.load(repro.thread_config(run_dir=str(tmp_path / "runinfo")))
    repro.clear()
    from repro.parsl.errors import DataFlowKernelShutdownError

    with pytest.raises((DataFlowKernelShutdownError, NoDataFlowKernelError)):
        dfk.submit(lambda: 1, (), {})


def test_cancel_unstarted_fails_waiting_and_queued_tasks_only(tmp_path):
    """One thread: ``blocker`` runs, ``queued`` waits for the thread and
    ``dependent`` for ``blocker``.  Cancelling leaves ``blocker`` alone; the
    other two never run, even though ``blocker`` then succeeds."""
    import threading
    from concurrent.futures import CancelledError

    started, gate, ran = threading.Event(), threading.Event(), []

    @python_app
    def blocker():
        started.set()
        gate.wait(30)
        return "blocked"

    @python_app
    def record(name, _after=None):
        ran.append(name)

    dfk = repro.load(repro.thread_config(max_threads=1, run_dir=str(tmp_path / "runinfo")))
    try:
        first = blocker()
        queued = record("queued")
        dependent = record("dependent", first)
        assert started.wait(30)
        dfk.cancel_unstarted()
        gate.set()
        assert first.result() == "blocked"
        for future in (queued, dependent):
            with pytest.raises(CancelledError):
                future.result(timeout=30)
        dfk.wait_for_current_tasks(timeout=30)
        assert ran == []
    finally:
        gate.set()
        repro.clear()
