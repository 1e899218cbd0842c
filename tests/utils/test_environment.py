"""A run's spawn environment: read once, however many threads spawn at once."""

from __future__ import annotations

import os
import pickle
import sys
import threading

from repro.utils import environment
from repro.utils.environment import RunEnvironment, package_root


def test_a_run_reads_the_environment_once_under_racing_spawns(monkeypatch):
    """More spawning threads than cores, switching every few microseconds:
    one read, and every spawn gets the same mapping plus its own overlay."""
    reads = []
    real = environment.subprocess_environment

    def counted():
        reads.append(threading.get_ident())
        return real()

    monkeypatch.setattr(environment, "subprocess_environment", counted)
    run = RunEnvironment()
    results, errors = {}, []
    start = threading.Barrier(8)

    def spawn(number: int) -> None:
        try:
            start.wait(timeout=10)
            for _ in range(50):
                results.setdefault(number, []).append(run.spawn({"JOB": str(number)}))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spawn, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(reads) == 1
    base = real()
    for number, spawned in results.items():
        assert len(spawned) == 50
        assert all(env == dict(base, JOB=str(number)) for env in spawned)


def test_a_spawn_sees_the_overlays_in_order_and_never_changes_the_run(monkeypatch):
    monkeypatch.setenv("REPRO_ENV_TEST", "outer")
    run = RunEnvironment()
    first = run.spawn({"REPRO_ENV_TEST": "context"}, {"REPRO_ENV_TEST": "tool"})
    assert first["REPRO_ENV_TEST"] == "tool"
    assert package_root() in first["PYTHONPATH"].split(os.pathsep)
    monkeypatch.setenv("REPRO_ENV_TEST", "later")
    assert run.spawn()["REPRO_ENV_TEST"] == "outer"  # read once, for the run
    assert RunEnvironment().spawn()["REPRO_ENV_TEST"] == "later"  # the next run's


def test_a_pickled_run_environment_is_read_again_where_it_lands(monkeypatch):
    run = RunEnvironment()
    monkeypatch.setenv("REPRO_ENV_TEST", "before")
    run.spawn()
    monkeypatch.setenv("REPRO_ENV_TEST", "after")
    assert pickle.loads(pickle.dumps(run)).spawn()["REPRO_ENV_TEST"] == "after"
