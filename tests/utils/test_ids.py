"""Tests for repro.utils.ids."""

from __future__ import annotations

import threading

from repro.utils.ids import RunIdGenerator


def test_run_id_generator_monotonic():
    gen = RunIdGenerator()
    values = [gen.next() for _ in range(10)]
    assert values == list(range(10))


def test_run_id_generator_custom_start():
    gen = RunIdGenerator(start=100)
    assert gen.next() == 100
    assert gen.next() == 101


def test_run_id_generator_peek_does_not_consume():
    gen = RunIdGenerator()
    assert gen.peek() == 0
    assert gen.next() == 0
    assert gen.peek() == 1


def test_run_id_generator_thread_safety():
    gen = RunIdGenerator()
    results = []
    lock = threading.Lock()

    def worker():
        local = [gen.next() for _ in range(200)]
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8 * 200
    assert len(set(results)) == len(results), "ids must never repeat under concurrency"
