"""Tests for the simulated Slurm scheduler."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cluster.jobs import JobSpec, JobState
from repro.cluster.nodes import NodeInventory
from repro.cluster.scheduler import SimulatedSlurmCluster, default_cluster, reset_default_cluster


@pytest.fixture
def cluster():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(2, cores=4))
    yield cluster
    cluster.shutdown()


def test_callable_job_completes(cluster):
    job_id = cluster.sbatch(JobSpec(name="calc", callable_payload=lambda: 21 * 2))
    job = cluster.wait(job_id, timeout=10)
    assert job.state == JobState.COMPLETED
    assert job.result == 42
    assert len(job.assigned_nodes) == 1  # record of where the job ran is kept
    assert cluster.inventory.free_cores == cluster.inventory.total_cores  # cores released


def test_command_job_writes_stdout(cluster, tmp_path):
    out = tmp_path / "out.txt"
    job_id = cluster.sbatch(JobSpec(name="echo", command="echo simulated-slurm",
                                    stdout_path=str(out)))
    job = cluster.wait(job_id, timeout=10)
    assert job.state == JobState.COMPLETED
    assert job.exit_code == 0
    assert out.read_text().strip() == "simulated-slurm"


def test_command_job_exposes_slurm_env(cluster, tmp_path):
    out = tmp_path / "env.txt"
    job_id = cluster.sbatch(JobSpec(name="env", command="echo $SLURM_JOB_NODELIST",
                                    stdout_path=str(out), nodes=2, cores_per_node=1))
    cluster.wait(job_id, timeout=10)
    nodelist = out.read_text().strip()
    assert "node01" in nodelist and "node02" in nodelist


def test_failed_command_job(cluster):
    job_id = cluster.sbatch(JobSpec(name="fail", command="exit 3"))
    job = cluster.wait(job_id, timeout=10)
    assert job.state == JobState.FAILED
    assert job.exit_code == 3


def test_failing_callable_marks_job_failed(cluster):
    def boom():
        raise RuntimeError("kaboom")

    job_id = cluster.sbatch(JobSpec(name="boom", callable_payload=boom))
    job = cluster.wait(job_id, timeout=10)
    assert job.state == JobState.FAILED
    assert "kaboom" in (job.error or "")


def test_walltime_enforcement(cluster):
    job_id = cluster.sbatch(JobSpec(name="slow", command="sleep 5", walltime_s=0.2))
    job = cluster.wait(job_id, timeout=15)
    assert job.state == JobState.TIMEOUT


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has stopped running)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_walltime_kills_the_jobs_children_too(cluster, tmp_path):
    """Past its walltime the job's whole process group is killed, not only
    its shell: the ``sleep`` the shell started does not outlive the job."""
    pid_file = tmp_path / "sleep.pid"
    job_id = cluster.sbatch(JobSpec(
        name="slow", command=f"sleep 4.5 & echo $! > {pid_file}; wait; echo done",
        walltime_s=0.3))
    job = cluster.wait(job_id, timeout=15)
    assert job.state == JobState.TIMEOUT
    pid = int(pid_file.read_text())
    deadline = time.time() + 2
    while _running(pid) and time.time() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_jobs_queue_when_cluster_full(cluster):
    """A job larger than the free capacity stays PENDING until space frees up."""
    release = threading.Event()

    def hold():
        release.wait()
        return "held"

    hold_id = cluster.sbatch(JobSpec(name="hold", callable_payload=hold,
                                     nodes=2, cores_per_node=4))
    time.sleep(0.1)
    assert cluster.sacct(hold_id).state == JobState.RUNNING

    queued_id = cluster.sbatch(JobSpec(name="queued", callable_payload=lambda: "ran",
                                       nodes=1, cores_per_node=4))
    time.sleep(0.15)
    assert cluster.sacct(queued_id).state == JobState.PENDING
    assert cluster.utilisation() == 1.0

    release.set()
    job = cluster.wait(queued_id, timeout=10)
    assert job.state == JobState.COMPLETED
    assert job.result == "ran"


def test_scancel_pending_job(cluster):
    release = threading.Event()
    hold_id = cluster.sbatch(JobSpec(name="hold", callable_payload=release.wait,
                                     nodes=2, cores_per_node=4))
    queued_id = cluster.sbatch(JobSpec(name="queued", callable_payload=lambda: 1,
                                       nodes=1, cores_per_node=4))
    time.sleep(0.1)
    assert cluster.scancel(queued_id) is True
    assert cluster.sacct(queued_id).state == JobState.CANCELLED
    release.set()
    cluster.wait(hold_id, timeout=10)
    # Cancelling an already-terminal job returns False.
    assert cluster.scancel(queued_id) is False


def test_squeue_reports_only_live_jobs(cluster):
    job_id = cluster.sbatch(JobSpec(name="quick", callable_payload=lambda: 1))
    cluster.wait(job_id, timeout=10)
    assert all(j.job_id != job_id for j in cluster.squeue())


def test_sbatch_rejects_invalid_spec(cluster):
    with pytest.raises(ValueError):
        cluster.sbatch(JobSpec(name="bad"))


def test_sbatch_after_shutdown_raises():
    cluster = SimulatedSlurmCluster(NodeInventory.homogeneous(1, cores=2))
    cluster.shutdown()
    with pytest.raises(RuntimeError):
        cluster.sbatch(JobSpec(name="late", callable_payload=lambda: 1))


def test_many_small_jobs_all_complete(cluster):
    job_ids = [cluster.sbatch(JobSpec(name=f"j{i}", callable_payload=(lambda i=i: i * i)))
               for i in range(20)]
    results = [cluster.wait(job_id, timeout=20).result for job_id in job_ids]
    assert results == [i * i for i in range(20)]
    states = cluster.job_states()
    assert all(states[j] == JobState.COMPLETED for j in job_ids)


def test_default_cluster_is_shared_and_resettable():
    reset_default_cluster()
    first = default_cluster(nodes=2, cores_per_node=4)
    assert default_cluster() is first
    reset_default_cluster()
    second = default_cluster(nodes=2, cores_per_node=4)
    assert second is not first
    reset_default_cluster()
