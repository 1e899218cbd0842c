"""Tests for Config and the ready-made configurations."""

from __future__ import annotations

import dataclasses

import pytest

from repro.parsl.config import Config
from repro.parsl.configs import (
    htex_config,
    htex_local_config,
    local_process_config,
    thread_config,
)
from repro.parsl.executors.threads import ThreadPoolExecutor


def test_config_has_exactly_two_fields():
    assert [f.name for f in dataclasses.fields(Config)] == ["executors", "run_dir"]


@pytest.mark.parametrize("removed", [
    {"retries": 2}, {"app_cache": False}, {"checkpoint_mode": "dfk_exit"},
    {"checkpoint_files": ()}, {"staging_providers": None}, {"monitoring": True},
    {"strategy": "simple"},
])
def test_config_rejects_the_removed_options(removed):
    """A removed option is an error at construction, never accepted and ignored."""
    with pytest.raises(TypeError):
        Config(executors=[ThreadPoolExecutor()], **removed)
    with pytest.raises(TypeError):
        thread_config(**removed)


def test_default_config_uses_threads():
    config = Config.default()
    assert len(config.executors) == 1
    assert isinstance(config.executors[0], ThreadPoolExecutor)


@pytest.mark.parametrize("factory,label", [
    (thread_config, "threads"),
    (local_process_config, "processes"),
    (htex_local_config, "htex_local"),
])
def test_factory_configs_have_expected_labels(factory, label):
    config = factory()
    assert config.executors[0].label == label


def test_htex_config_builds_slurm_provider():
    from repro.cluster.nodes import NodeInventory
    from repro.cluster.scheduler import SimulatedSlurmCluster
    from repro.parsl.providers.slurm import SlurmProvider

    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(3, cores=8))
    try:
        config = htex_config(nodes=3, workers_per_node=2, cores_per_node=8, cluster=cluster)
        executor = config.executors[0]
        assert isinstance(executor.provider, SlurmProvider)
        assert executor.provider.nodes_per_block == 3
        assert executor.max_workers_per_node == 2
    finally:
        cluster.shutdown()
