"""A from-scratch implementation of the Parsl parallel programming model.

This subpackage exists because the real ``parsl`` package is not installable in
this offline environment, yet the paper's contribution is precisely the bridge
between Parsl and CWL.  It implements the programming model the paper relies
on — apps, futures, dataflow-driven dependency execution, pluggable executors
and providers — with an API that mirrors Parsl's public surface closely enough
that the paper's listings (e.g. Listing 2 and Listing 4) translate line for
line.

Typical use::

    from repro import parsl

    parsl.load(parsl.configs.thread_config(max_threads=8))

    @parsl.bash_app
    def echo(message: str, stdout=None):
        return f"echo {message}"

    future = echo("hello", stdout="hello.txt")
    future.result()
    parsl.clear()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parsl import configs
    from repro.parsl.apps.app import bash_app, join_app, python_app
    from repro.parsl.config import Config
    from repro.parsl.data_provider.files import File
    from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader
    from repro.parsl.dataflow.futures import AppFuture, DataFuture

__getattr__, __dir__ = lazy_exports(__name__, {
    "AppFuture": "repro.parsl.dataflow.futures",
    "Config": "repro.parsl.config",
    "DataFlowKernel": "repro.parsl.dataflow.dflow",
    "DataFlowKernelLoader": "repro.parsl.dataflow.dflow",
    "DataFuture": "repro.parsl.dataflow.futures",
    "File": "repro.parsl.data_provider.files",
    "bash_app": "repro.parsl.apps.app",
    "configs": "repro.parsl.configs",
    "join_app": "repro.parsl.apps.app",
    "python_app": "repro.parsl.apps.app",
})


def _kernel_loader() -> "type[DataFlowKernelLoader]":
    from repro.parsl.dataflow.dflow import DataFlowKernelLoader

    return DataFlowKernelLoader


def load(config: Optional[Config] = None) -> DataFlowKernel:
    """Load a DataFlowKernel from ``config`` (or the default thread pool)."""
    return _kernel_loader().load(config)


def clear() -> None:
    """Shut down the currently loaded DataFlowKernel, if any."""
    _kernel_loader().clear()


def dfk() -> DataFlowKernel:
    """Return the currently loaded DataFlowKernel."""
    return _kernel_loader().dfk()


def wait_for_current_tasks() -> None:
    """Block until all tasks submitted so far have finished."""
    _kernel_loader().wait_for_current_tasks()


__all__ = [
    "AppFuture",
    "Config",
    "DataFlowKernel",
    "DataFlowKernelLoader",
    "DataFuture",
    "File",
    "bash_app",
    "clear",
    "configs",
    "dfk",
    "join_app",
    "load",
    "python_app",
    "wait_for_current_tasks",
]
