"""Tests for the executor implementations (threads, processes, HTEX)."""

from __future__ import annotations

import time

import pytest

from repro.parsl.errors import BashExitFailure
from repro.parsl.executors.high_throughput.executor import HighThroughputExecutor
from repro.parsl.executors.processes import ProcessPoolExecutor
from repro.parsl.executors.threads import ThreadPoolExecutor
from repro.parsl.providers.local import LocalProvider


def square(x):
    return x * x


def boom():
    raise RuntimeError("executor task failure")


# --------------------------------------------------------------------- threads


def test_thread_pool_runs_tasks():
    executor = ThreadPoolExecutor(max_threads=2)
    executor.start()
    try:
        futures = [executor.submit(square, {}, i) for i in range(10)]
        assert [f.result() for f in futures] == [i * i for i in range(10)]
    finally:
        executor.shutdown()


def test_thread_pool_outstanding_counter():
    executor = ThreadPoolExecutor(max_threads=1)
    executor.start()
    try:
        future = executor.submit(time.sleep, {}, 0.05)
        assert executor.outstanding() >= 1
        future.result()
        time.sleep(0.02)
        assert executor.outstanding() == 0
    finally:
        executor.shutdown()


def test_thread_pool_submit_before_start_raises():
    executor = ThreadPoolExecutor(max_threads=1)
    with pytest.raises(RuntimeError):
        executor.submit(square, {}, 1)


def test_thread_pool_rejects_zero_threads():
    with pytest.raises(ValueError):
        ThreadPoolExecutor(max_threads=0)


# -------------------------------------------------------------------- processes


def test_process_pool_runs_tasks_and_closures():
    executor = ProcessPoolExecutor(max_workers=2)
    executor.start()
    offset = 7

    def with_closure(x):
        return x + offset

    try:
        assert executor.submit(square, {}, 6).result() == 36
        assert executor.submit(with_closure, {}, 1).result() == 8
    finally:
        executor.shutdown()


def test_process_pool_propagates_exceptions():
    executor = ProcessPoolExecutor(max_workers=1)
    executor.start()
    try:
        with pytest.raises(RuntimeError, match="executor task failure"):
            executor.submit(boom, {}).result()
    finally:
        executor.shutdown()


# ------------------------------------------------------------------------ HTEX


@pytest.fixture
def htex():
    executor = HighThroughputExecutor(
        label="htex-test",
        provider=LocalProvider(nodes_per_block=1, cores_per_node=2, init_blocks=1, max_blocks=1),
        max_workers_per_node=2,
    )
    executor.start()
    yield executor
    executor.shutdown()


def test_htex_runs_tasks_in_worker_processes(htex):
    futures = [htex.submit(square, {}, i) for i in range(12)]
    assert [f.result() for f in futures] == [i * i for i in range(12)]
    assert htex.connected_blocks == 1
    assert htex.total_workers == 2


def test_htex_task_exception_propagates(htex):
    with pytest.raises(RuntimeError, match="executor task failure"):
        htex.submit(boom, {}).result()


def exit_like_a_failing_bash_app():
    raise BashExitFailure("false_app", 3, "false")


def test_htex_returns_a_bash_exit_failure_as_itself(htex):
    """The worker pickles the task's exception; it must come back whole."""
    with pytest.raises(BashExitFailure) as failure:
        htex.submit(exit_like_a_failing_bash_app, {}).result()
    assert (failure.value.app_name, failure.value.exitcode, failure.value.command) \
        == ("false_app", 3, "false")


def test_htex_tasks_really_use_other_processes(htex):
    import os

    pids = {htex.submit(os.getpid, {}).result() for _ in range(6)}
    assert os.getpid() not in pids


def test_htex_elastic_scale_out():
    provider = LocalProvider(nodes_per_block=1, cores_per_node=1,
                             init_blocks=1, min_blocks=1, max_blocks=3)
    executor = HighThroughputExecutor(label="htex-elastic", provider=provider,
                                      max_workers_per_node=1, enable_elastic_scaling=True)
    executor.start()
    try:
        futures = [executor.submit(time.sleep, {}, 0.05) for _ in range(8)]
        [f.result() for f in futures]
        assert executor.connected_blocks >= 2, "backlog should have triggered scale-out"
    finally:
        executor.shutdown()


def test_htex_scale_in_reduces_blocks():
    provider = LocalProvider(nodes_per_block=1, cores_per_node=1,
                             init_blocks=2, min_blocks=0, max_blocks=2)
    executor = HighThroughputExecutor(label="htex-scalein", provider=provider,
                                      max_workers_per_node=1, enable_elastic_scaling=False)
    executor.start()
    try:
        assert executor.connected_blocks == 2
        removed = executor.scale_in(1)
        assert removed == 1
        assert executor.connected_blocks == 1
        # Remaining workers still serve tasks.
        assert executor.submit(square, {}, 3).result() == 9
    finally:
        executor.shutdown()


def test_htex_shutdown_is_idempotent(htex):
    htex.shutdown()
    htex.shutdown()
