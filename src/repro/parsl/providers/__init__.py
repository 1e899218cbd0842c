"""Execution providers: acquire blocks of compute resources for pilot-job executors."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parsl.providers.base import Block, ExecutionProvider, ProviderJobState
    from repro.parsl.providers.local import LocalProvider
    from repro.parsl.providers.slurm import SlurmProvider

# A local provider must not import the cluster simulator behind the Slurm one.
__getattr__, __dir__ = lazy_exports(__name__, {
    "Block": "repro.parsl.providers.base",
    "ExecutionProvider": "repro.parsl.providers.base",
    "LocalProvider": "repro.parsl.providers.local",
    "ProviderJobState": "repro.parsl.providers.base",
    "SlurmProvider": "repro.parsl.providers.slurm",
})

__all__ = [
    "Block",
    "ExecutionProvider",
    "LocalProvider",
    "ProviderJobState",
    "SlurmProvider",
]
