"""Executors: pluggable runtime engines that actually run tasks."""

from repro.parsl.executors.base import ParslExecutor
from repro.parsl.executors.threads import ThreadPoolExecutor
from repro.parsl.executors.processes import ProcessPoolExecutor
from repro.parsl.executors.high_throughput.executor import HighThroughputExecutor

__all__ = [
    "HighThroughputExecutor",
    "ParslExecutor",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
]
