"""Ready-made configurations.

Parsl ships example configurations (``parsl.configs.local_threads`` etc.) and
the paper's listings load them directly.  These factories provide the same
convenience for this re-implementation and are also the building blocks used by
:mod:`repro.core.yaml_config` when translating TaPS-style YAML configuration
files into live :class:`~repro.parsl.config.Config` objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

# Executors and providers are taken from the packages' lazy surfaces, so a
# factory imports only what it builds: ``thread_config`` loads neither the
# HTEX interchange nor the cluster simulator.
from repro.parsl import executors, providers
from repro.parsl.config import Config

if TYPE_CHECKING:
    from repro.cluster.scheduler import SimulatedSlurmCluster


def thread_config(max_threads: int = 8, label: str = "threads", **config_kwargs) -> Config:
    """Single-node thread-pool configuration (``parsl.configs.local_threads`` analogue)."""
    return Config(executors=[executors.ThreadPoolExecutor(label=label, max_threads=max_threads)],
                  **config_kwargs)


def local_process_config(max_workers: int = 4, label: str = "processes", **config_kwargs) -> Config:
    """Single-node process-pool configuration."""
    return Config(executors=[executors.ProcessPoolExecutor(label=label, max_workers=max_workers)],
                  **config_kwargs)


def htex_local_config(workers: int = 4, label: str = "htex_local", **config_kwargs) -> Config:
    """HighThroughputExecutor on the local machine (one block, N workers)."""
    provider = providers.LocalProvider(nodes_per_block=1, cores_per_node=workers,
                                       init_blocks=1, max_blocks=1)
    executor = executors.HighThroughputExecutor(label=label, provider=provider,
                                                max_workers_per_node=workers)
    return Config(executors=[executor], **config_kwargs)


def htex_config(
    nodes: int = 3,
    workers_per_node: int = 8,
    cores_per_node: int = 48,
    label: str = "htex",
    cluster: Optional[SimulatedSlurmCluster] = None,
    **config_kwargs,
) -> Config:
    """HighThroughputExecutor over a (simulated) Slurm allocation.

    This is the configuration used to reproduce the paper's three-node
    experiment (Fig. 1a): one pilot block spanning ``nodes`` nodes, with
    ``workers_per_node`` worker processes per node.
    """
    provider = providers.SlurmProvider(
        nodes_per_block=nodes,
        cores_per_node=cores_per_node,
        init_blocks=1,
        max_blocks=1,
        cluster=cluster,
    )
    executor = executors.HighThroughputExecutor(
        label=label,
        provider=provider,
        max_workers_per_node=workers_per_node,
    )
    return Config(executors=[executor], **config_kwargs)
