"""Tests for execution providers (local, Slurm)."""

from __future__ import annotations

import pytest

from repro.cluster.nodes import NodeInventory
from repro.cluster.scheduler import SimulatedSlurmCluster
from repro.parsl.errors import SubmitException
from repro.parsl.providers.base import ExecutionProvider, ProviderJobState
from repro.parsl.providers.local import LocalProvider
from repro.parsl.providers.slurm import SlurmProvider


def test_walltime_parsing():
    assert ExecutionProvider.parse_walltime("01:30:00") == 5400
    assert ExecutionProvider.parse_walltime("00:00:10") == 10
    with pytest.raises(ValueError):
        ExecutionProvider.parse_walltime("90 minutes")


def test_block_bounds_validation():
    with pytest.raises(ValueError):
        LocalProvider(init_blocks=3, max_blocks=1)
    with pytest.raises(ValueError):
        LocalProvider(nodes_per_block=0)


def test_local_provider_grants_blocks_immediately():
    provider = LocalProvider(nodes_per_block=2, cores_per_node=4)
    block = provider.submit_block("test")
    assert len(block.node_names) == 2
    assert block.cores_per_node == 4
    assert block.total_cores == 8
    assert provider.status(block) == ProviderJobState.RUNNING
    assert provider.cancel(block) is True
    assert provider.status(block) == ProviderJobState.CANCELLED
    assert provider.cancel(block) is False


@pytest.fixture
def small_cluster():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(3, cores=8))
    yield cluster
    cluster.shutdown()


def test_slurm_provider_allocates_and_releases(small_cluster):
    provider = SlurmProvider(nodes_per_block=2, cores_per_node=8, cluster=small_cluster,
                             allocation_timeout_s=5)
    block = provider.submit_block("pilot")
    assert len(block.node_names) == 2
    assert provider.status(block) == ProviderJobState.RUNNING
    assert small_cluster.inventory.free_cores == 8  # one node left free
    assert provider.cancel(block) is True
    # After release the cluster's cores come back.
    assert small_cluster.inventory.free_cores == 24


def test_slurm_provider_times_out_when_cluster_full(small_cluster):
    big = SlurmProvider(nodes_per_block=3, cores_per_node=8, cluster=small_cluster,
                        allocation_timeout_s=5)
    held = big.submit_block("hold-everything")
    impossible = SlurmProvider(nodes_per_block=1, cores_per_node=8, cluster=small_cluster,
                               allocation_timeout_s=0.3)
    with pytest.raises(SubmitException):
        impossible.submit_block("never-fits")
    big.cancel(held)
