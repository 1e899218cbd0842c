"""Tests for Config validation, ready-made configs and the monitoring hub."""

from __future__ import annotations

import json

import pytest

import repro
from repro.parsl import python_app
from repro.parsl.config import Config
from repro.parsl.configs import (
    htex_config,
    htex_local_config,
    local_process_config,
    thread_config,
)
from repro.parsl.errors import ConfigurationError
from repro.parsl.executors.threads import ThreadPoolExecutor
from repro.parsl.monitoring.monitoring import MonitoringHub


def test_config_rejects_negative_retries():
    with pytest.raises(ConfigurationError):
        Config(executors=[ThreadPoolExecutor()], retries=-1)


def test_config_rejects_bad_checkpoint_mode():
    with pytest.raises(ConfigurationError):
        Config(executors=[ThreadPoolExecutor()], checkpoint_mode="sometimes")


def test_config_rejects_bad_strategy():
    with pytest.raises(ConfigurationError):
        Config(executors=[ThreadPoolExecutor()], strategy="aggressive")


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


def test_monitoring_hub_records_task_transitions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    repro.load(thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo"), monitoring=True))

    @python_app
    def tracked(x):
        return x + 1

    try:
        assert tracked(1).result() == 2
        dfk = repro.dfk()
        assert dfk.monitoring is not None
        events = dfk.monitoring.events()
        statuses = [e.status for e in events]
        assert "pending" in statuses and "exec_done" in statuses
        counts = dfk.monitoring.state_counts()
        assert counts.get("exec_done") == 1
    finally:
        repro.clear()

    # Events were flushed to the JSONL file and can be loaded back.
    monitoring_files = list((tmp_path / "runinfo").glob("*/monitoring.jsonl"))
    assert monitoring_files
    loaded = MonitoringHub.load_events(str(monitoring_files[0]))
    assert any(e.status == "exec_done" for e in loaded)
    with open(monitoring_files[0]) as handle:
        for line in handle:
            json.loads(line)  # every line is valid JSON
