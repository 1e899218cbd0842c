"""Execution providers: acquire blocks of compute resources for pilot-job executors."""

from repro.parsl.providers.base import Block, ExecutionProvider, ProviderJobState
from repro.parsl.providers.local import LocalProvider
from repro.parsl.providers.slurm import SlurmProvider

__all__ = [
    "Block",
    "ExecutionProvider",
    "LocalProvider",
    "ProviderJobState",
    "SlurmProvider",
]
