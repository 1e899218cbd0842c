"""Tests for the TaPS-style YAML configuration loader."""

from __future__ import annotations

import pytest

from repro.cluster.nodes import NodeInventory
from repro.cluster.scheduler import SimulatedSlurmCluster
from repro.core.yaml_config import config_from_dict, load_yaml_config
from repro.parsl.errors import ConfigurationError
from repro.parsl.executors.high_throughput.executor import HighThroughputExecutor
from repro.parsl.executors.processes import ProcessPoolExecutor
from repro.parsl.executors.threads import ThreadPoolExecutor
from repro.parsl.providers.local import LocalProvider
from repro.parsl.providers.slurm import SlurmProvider
from repro.utils.yamlio import dump_yaml


def test_thread_pool_config():
    config = config_from_dict({"executor": "thread-pool", "max_threads": 3})
    executor = config.executors[0]
    assert isinstance(executor, ThreadPoolExecutor)
    assert executor.max_threads == 3


def test_process_pool_config():
    procs = config_from_dict({"executor": "process-pool", "max_workers": 2})
    assert isinstance(procs.executors[0], ProcessPoolExecutor)


def test_htex_local_provider_config():
    config = config_from_dict({"executor": "htex", "provider": "local",
                               "nodes": 1, "cores_per_node": 4, "workers_per_node": 2})
    executor = config.executors[0]
    assert isinstance(executor, HighThroughputExecutor)
    assert isinstance(executor.provider, LocalProvider)
    assert executor.max_workers_per_node == 2


def test_htex_slurm_provider_config_with_injected_cluster():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(3, cores=8))
    try:
        config = config_from_dict({"executor": "htex", "provider": "slurm", "nodes": 3,
                                   "cores_per_node": 8, "workers_per_node": 4,
                                   "partition": "debug"},
                                  cluster=cluster)
        provider = config.executors[0].provider
        assert isinstance(provider, SlurmProvider)
        assert provider.cluster is cluster
        assert provider.partition == "debug"
        assert provider.nodes_per_block == 3
    finally:
        cluster.shutdown()


def test_executor_aliases_accepted():
    for alias in ("threads", "threadpool", "high-throughput", "processes"):
        config = config_from_dict({"executor": alias})
        assert config.executors, alias


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"executor": "thread-pool", "workers_per_nod": 3})


def test_retries_key_is_rejected_with_a_pointer_to_retry_policy():
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict({"executor": "thread-pool", "retries": 2})
    message = str(excinfo.value)
    assert "unknown configuration key(s) ['retries']" in message
    assert "retry_policy=" in message and "--retries" in message


def test_removed_kernel_keys_are_unknown_keys():
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict({"app_cache": True, "monitoring": False})
    message = str(excinfo.value)
    assert "['app_cache', 'monitoring']" in message
    assert "retry_policy" not in message  # the pointer is for `retries` alone


def test_unknown_executor_and_provider_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"executor": "quantum"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"executor": "htex", "provider": "lsf"})


@pytest.mark.parametrize("document,message", [
    ({"executor": "workqueue"},
     "unknown executor 'workqueue'; expected one of ['high-throughput', 'highthroughput', "
     "'htex', 'process-pool', 'processes', 'thread-pool', 'threadpool', 'threads']"),
    ({"executor": "taskvine"}, "unknown executor 'taskvine'; expected one of"),
    ({"executor": "htex", "provider": "pbs"},
     "unknown provider 'pbs'; expected local or slurm"),
    ({"executor": "htex", "provider": "kubernetes"},
     "unknown provider 'kubernetes'; expected local or slurm"),
])
def test_removed_backends_report_the_remaining_names(document, message):
    """The deleted leaf backends are now ordinary unknown names."""
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict(document)
    assert message in str(excinfo.value)


def test_load_yaml_config_from_file(tmp_path):
    path = tmp_path / "config.yml"
    path.write_text(dump_yaml({"executor": "thread-pool", "max_threads": 6, "run_dir": "rd"}))
    config = load_yaml_config(path)
    assert config.executors[0].max_threads == 6
    assert config.run_dir == "rd"


def test_load_yaml_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yml"
    path.write_text("")
    config = load_yaml_config(path)
    assert isinstance(config.executors[0], ThreadPoolExecutor)


def test_load_yaml_config_non_mapping_rejected(tmp_path):
    path = tmp_path / "bad.yml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigurationError):
        load_yaml_config(path)


def test_example_config_files_parse(config_dir):
    threads = load_yaml_config(config_dir / "local_threads.yml")
    assert isinstance(threads.executors[0], ThreadPoolExecutor)
    htex_local = load_yaml_config(config_dir / "htex_local.yml")
    assert isinstance(htex_local.executors[0], HighThroughputExecutor)
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(3, cores=48))
    try:
        htex_slurm = load_yaml_config(config_dir / "htex_slurm_3nodes.yml", cluster=cluster)
        assert htex_slurm.executors[0].provider.nodes_per_block == 3
    finally:
        cluster.shutdown()
