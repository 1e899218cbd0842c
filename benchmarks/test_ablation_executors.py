"""Ablation A2 — executor comparison on an identical task bag.

The paper argues that Parsl's pluggable executors let the same workflow scale from
a laptop to an HPC system.  This ablation runs the same bag of short bash tasks on
each executor so their per-task overheads can be compared directly:

* ThreadPoolExecutor (the Fig. 1b configuration),
* ProcessPoolExecutor,
* HighThroughputExecutor with a local provider (the pilot-job path of Fig. 1a).
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.parsl import bash_app
from repro.parsl.config import Config
from repro.parsl.configs import htex_local_config, local_process_config, thread_config

TASKS = 16

CONFIG_FACTORIES = {
    "threads": lambda run_dir: thread_config(max_threads=4, run_dir=run_dir),
    "processes": lambda run_dir: local_process_config(max_workers=4, run_dir=run_dir),
    "htex-local": lambda run_dir: htex_local_config(workers=4, run_dir=run_dir),
}


@bash_app
def tiny_task(index: int, stdout=None):
    return f"echo task {index}"


@pytest.mark.parametrize("executor_name", list(CONFIG_FACTORIES))
def test_executor_task_bag(benchmark, executor_name, tmp_path_factory):
    base = tmp_path_factory.mktemp(f"exec_{executor_name}")

    def run_bag():
        previous = os.getcwd()
        os.chdir(base)
        repro.load(CONFIG_FACTORIES[executor_name](str(base / "runinfo")))
        try:
            futures = [tiny_task(i, stdout=str(base / f"task_{i}.txt")) for i in range(TASKS)]
            assert all(f.result() == 0 for f in futures)
        finally:
            repro.clear()
            os.chdir(previous)

    benchmark.pedantic(run_bag, rounds=1, iterations=1)
