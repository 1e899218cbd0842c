"""TaPS-style YAML configuration for the ``parsl-cwl`` runner (paper §III-B).

The paper adopts a YAML configuration format (following the TaPS benchmark
suite) so that Parsl configuration lives alongside the CWL documents rather than
in Python.  The supported keys:

.. code-block:: yaml

    executor: htex            # htex | thread-pool | process-pool
    provider: slurm           # local | slurm  (htex only)
    nodes: 3                  # nodes per block (htex)
    cores_per_node: 48
    workers_per_node: 8
    max_threads: 8            # thread-pool
    max_workers: 4            # process-pool
    partition: normal         # slurm
    walltime: "00:30:00"      # htex
    run_dir: runinfo
    label: htex

Unknown keys raise immediately — misspelling ``workers_per_node`` should not
silently fall back to a default.  The file configures the Parsl runtime only:
how a run retries, caches and resumes are run options (``retry_policy=``,
``cache_dir=``, ``--rundir``), so a ``retries:`` key is rejected like any
other unknown one, with a pointer to its successor.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

# Executors and providers come from the packages' lazy surfaces: only the kind
# a configuration names is imported (the Parsl engine imports this module).
from repro.parsl import executors, providers
from repro.parsl.config import Config
from repro.parsl.errors import ConfigurationError
from repro.utils.yamlio import load_yaml_file

if TYPE_CHECKING:
    from repro.cluster.scheduler import SimulatedSlurmCluster

_KNOWN_KEYS = {
    "executor", "provider", "nodes", "cores_per_node", "workers_per_node",
    "max_threads", "max_workers", "run_dir",
    "label", "partition", "walltime",
}

_RETRIES_MOVED = (
    "; retries are a run option, not a Parsl setting: pass retry_policy= to "
    "api.run / Session / CWLApp(runtime_context=...), or --retries to "
    "repro-cwltool / repro-toil-cwl-runner"
)

_EXECUTOR_ALIASES = {
    "htex": "htex",
    "high-throughput": "htex",
    "highthroughput": "htex",
    "thread-pool": "threads",
    "threads": "threads",
    "threadpool": "threads",
    "process-pool": "processes",
    "processes": "processes",
}


def load_yaml_config(path: Union[str, os.PathLike],
                     cluster: Optional[SimulatedSlurmCluster] = None) -> Config:
    """Load a TaPS-style YAML configuration file into a live :class:`Config`."""
    document = load_yaml_file(path)
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigurationError(f"configuration file {path} must contain a mapping")
    return config_from_dict(document, cluster=cluster)


def config_from_dict(document: Dict[str, Any],
                     cluster: Optional[SimulatedSlurmCluster] = None) -> Config:
    """Build a :class:`Config` from an already-parsed configuration dictionary."""
    unknown = set(document) - _KNOWN_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown configuration key(s) {sorted(unknown)}; supported keys are {sorted(_KNOWN_KEYS)}"
            + (_RETRIES_MOVED if "retries" in unknown else "")
        )

    executor_name = _EXECUTOR_ALIASES.get(str(document.get("executor", "thread-pool")).lower())
    if executor_name is None:
        raise ConfigurationError(
            f"unknown executor {document.get('executor')!r}; expected one of {sorted(_EXECUTOR_ALIASES)}"
        )
    label = document.get("label", executor_name)

    if executor_name == "threads":
        executor = executors.ThreadPoolExecutor(
            label=label, max_threads=int(document.get("max_threads", 8)))
    elif executor_name == "processes":
        executor = executors.ProcessPoolExecutor(
            label=label, max_workers=int(document.get("max_workers", 4)))
    else:  # htex
        executor = executors.HighThroughputExecutor(
            label=label,
            provider=_build_provider(document, cluster),
            max_workers_per_node=int(document.get("workers_per_node", 4)),
        )

    return Config(executors=[executor], run_dir=str(document.get("run_dir", "runinfo")))


def _build_provider(document: Dict[str, Any], cluster: Optional[SimulatedSlurmCluster]):
    provider_name = str(document.get("provider", "local")).lower()
    nodes = int(document.get("nodes", 1))
    cores_per_node = int(document.get("cores_per_node", os.cpu_count() or 4))
    walltime = str(document.get("walltime", "00:30:00"))

    if provider_name == "local":
        return providers.LocalProvider(nodes_per_block=nodes, cores_per_node=cores_per_node,
                                       init_blocks=1, max_blocks=1, walltime=walltime)
    if provider_name == "slurm":
        from repro.cluster.nodes import NodeInventory
        from repro.cluster.scheduler import SimulatedSlurmCluster

        return providers.SlurmProvider(
            nodes_per_block=nodes,
            cores_per_node=cores_per_node,
            init_blocks=1,
            max_blocks=1,
            walltime=walltime,
            partition=str(document.get("partition", "normal")),
            cluster=cluster or SimulatedSlurmCluster(
                NodeInventory.homogeneous(nodes, cores=cores_per_node)),
        )
    raise ConfigurationError(
        f"unknown provider {provider_name!r}; expected local or slurm"
    )
