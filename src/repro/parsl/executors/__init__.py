"""Executors: pluggable runtime engines that actually run tasks."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parsl.executors.base import ParslExecutor
    from repro.parsl.executors.high_throughput.executor import HighThroughputExecutor
    from repro.parsl.executors.processes import ProcessPoolExecutor
    from repro.parsl.executors.threads import ThreadPoolExecutor

# A thread-pool configuration must not import the HTEX interchange, its
# providers and the cluster simulator.
__getattr__, __dir__ = lazy_exports(__name__, {
    "HighThroughputExecutor": "repro.parsl.executors.high_throughput.executor",
    "ParslExecutor": "repro.parsl.executors.base",
    "ProcessPoolExecutor": "repro.parsl.executors.processes",
    "ThreadPoolExecutor": "repro.parsl.executors.threads",
})

__all__ = [
    "HighThroughputExecutor",
    "ParslExecutor",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
]
