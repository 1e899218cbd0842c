"""The simulated Slurm-like batch scheduler.

:class:`SimulatedSlurmCluster` exposes the small surface of a batch system that
providers and batch systems in this repository need:

* :meth:`~SimulatedSlurmCluster.sbatch` — submit a :class:`~repro.cluster.jobs.JobSpec`
  and receive a job id,
* :meth:`~SimulatedSlurmCluster.squeue` — list non-terminal jobs,
* :meth:`~SimulatedSlurmCluster.scancel` — cancel a pending or running job,
* :meth:`~SimulatedSlurmCluster.sacct` — report the state of any job,
* :meth:`~SimulatedSlurmCluster.wait` — block until a job finishes.

A background scheduling thread repeatedly walks the FIFO queue, placing each
job on nodes that have enough free cores.  Jobs with a shell command run as
local subprocesses; jobs with a callable payload run on a thread from an
internal pool.  Either way the payload executes for real, so end-to-end timing
experiments remain meaningful; only the *placement* (nodes, queueing) is
simulated.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.cluster.jobs import ClusterJob, JobSpec, JobState
from repro.cluster.nodes import NodeInventory
from repro.utils.ids import RunIdGenerator
from repro.utils.logging_config import get_logger

logger = get_logger("cluster.scheduler")


class SimulatedSlurmCluster:
    """A miniature batch scheduler over a :class:`NodeInventory`.

    Parameters
    ----------
    inventory:
        The node inventory; defaults to a paper-style three-node cluster with 48
        cores per node.
    scheduling_interval:
        How often (seconds) the scheduling loop scans the queue when idle.
    max_concurrent_payloads:
        Size of the internal thread pool used for callable payloads.
    """

    def __init__(
        self,
        inventory: Optional[NodeInventory] = None,
        scheduling_interval: float = 0.01,
        max_concurrent_payloads: int = 64,
    ) -> None:
        self.inventory = inventory or NodeInventory.homogeneous(3, cores=48)
        self.scheduling_interval = scheduling_interval
        self._jobs: Dict[int, ClusterJob] = {}
        self._queue: List[int] = []
        self._ids = RunIdGenerator(start=1)
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._shutdown = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent_payloads, thread_name_prefix="simslurm-payload"
        )
        self._scheduler_thread = threading.Thread(
            target=self._scheduling_loop, name="simslurm-scheduler", daemon=True
        )
        self._scheduler_thread.start()

    # ------------------------------------------------------------------ API

    def sbatch(self, spec: JobSpec) -> int:
        """Submit a job; returns its integer job id."""
        if self._shutdown.is_set():
            raise RuntimeError("cluster has been shut down")
        spec.validate()
        with self._lock:
            job_id = self._ids.next()
            job = ClusterJob(job_id=job_id, spec=spec)
            self._jobs[job_id] = job
            self._queue.append(job_id)
        logger.debug("sbatch job %s (%s): %s nodes x %s cores", job_id, spec.name,
                     spec.nodes, spec.cores_per_node)
        self._wake.set()
        return job_id

    def squeue(self) -> List[ClusterJob]:
        """Return all jobs that have not yet reached a terminal state."""
        with self._lock:
            return [job for job in self._jobs.values() if not job.state.is_terminal]

    def sacct(self, job_id: int) -> ClusterJob:
        """Return the record for ``job_id`` (raises ``KeyError`` if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def scancel(self, job_id: int) -> bool:
        """Cancel a job.  Running jobs are marked cancelled; their payload is not killed
        (matching the best-effort behaviour of ``scancel`` for near-complete jobs).
        Returns ``True`` if the job transitioned to CANCELLED."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state.is_terminal:
                return False
            if job.state == JobState.PENDING and job_id in self._queue:
                self._queue.remove(job_id)
            job.mark_finished(JobState.CANCELLED)
            if job.assigned_nodes:
                self.inventory.release(job.assigned_nodes, job.spec.cores_per_node,
                                       job.spec.memory_mb_per_node)
                job.assigned_nodes = []
            return True

    def wait(self, job_id: int, timeout: Optional[float] = None) -> ClusterJob:
        """Block until ``job_id`` finishes; returns its record."""
        job = self.sacct(job_id)
        job.wait(timeout)
        return job

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job reaches a terminal state."""
        for job_id in list(self._jobs):
            self.wait(job_id, timeout)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Stop the scheduler.  Pending jobs are cancelled unless told otherwise."""
        if cancel_pending:
            for job in self.squeue():
                if job.state == JobState.PENDING:
                    self.scancel(job.job_id)
        self._shutdown.set()
        self._wake.set()
        self._scheduler_thread.join(timeout=5)
        self._pool.shutdown(wait=False, cancel_futures=True)

    # ----------------------------------------------------------- scheduling

    def _scheduling_loop(self) -> None:
        while not self._shutdown.is_set():
            scheduled_any = self._schedule_once()
            if not scheduled_any:
                self._wake.wait(self.scheduling_interval)
                self._wake.clear()

    def _schedule_once(self) -> bool:
        """Try to start every queued job that currently fits; returns True if any started."""
        started = False
        with self._lock:
            queue_snapshot = list(self._queue)
        for job_id in queue_snapshot:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != JobState.PENDING:
                    if job_id in self._queue:
                        self._queue.remove(job_id)
                    continue
                placement = self.inventory.try_allocate(
                    job.spec.nodes, job.spec.cores_per_node, job.spec.memory_mb_per_node
                )
                if placement is None:
                    continue  # leave queued; FIFO but allows backfill of smaller jobs
                self._queue.remove(job_id)
                job.mark_running(placement)
            started = True
            self._pool.submit(self._run_job, job)
        return started

    def _run_job(self, job: ClusterJob) -> None:
        spec = job.spec
        try:
            if spec.command is not None:
                self._run_command_job(job)
            else:
                result = spec.callable_payload()  # type: ignore[misc]
                job.mark_finished(JobState.COMPLETED, exit_code=0, result=result)
        except Exception as exc:  # payload errors become FAILED jobs, not scheduler crashes
            logger.exception("job %s failed", job.job_id)
            job.mark_finished(JobState.FAILED, exit_code=1, error=str(exc))
        finally:
            if job.assigned_nodes:
                self.inventory.release(job.assigned_nodes, spec.cores_per_node,
                                       spec.memory_mb_per_node)
            self._wake.set()

    def _run_command_job(self, job: ClusterJob) -> None:
        spec = job.spec
        env = dict(os.environ)
        env.update(spec.env)
        # Expose Slurm-like environment variables so payloads can discover their placement.
        env.setdefault("SLURM_JOB_ID", str(job.job_id))
        env.setdefault("SLURM_JOB_NODELIST", ",".join(job.assigned_nodes))
        env.setdefault("SLURM_NNODES", str(spec.nodes))
        env.setdefault("SLURM_CPUS_ON_NODE", str(spec.cores_per_node))

        stdout_handle = open(spec.stdout_path, "wb") if spec.stdout_path else subprocess.DEVNULL
        stderr_handle = open(spec.stderr_path, "wb") if spec.stderr_path else subprocess.DEVNULL
        try:
            # The job leads a session of its own, so past its walltime the
            # whole group is killed: the shell and every child it started.
            proc = subprocess.Popen(
                spec.command,
                shell=True,
                cwd=spec.working_dir,
                env=env,
                stdout=stdout_handle,
                stderr=stderr_handle,
                start_new_session=True,
            )
            try:
                exit_code = proc.wait(timeout=spec.walltime_s)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # every process of the group has exited already
                proc.wait()
                job.mark_finished(JobState.TIMEOUT, exit_code=None,
                                  error=f"exceeded walltime of {spec.walltime_s}s")
                return
            state = JobState.COMPLETED if exit_code == 0 else JobState.FAILED
            job.mark_finished(state, exit_code=exit_code,
                              error=None if exit_code == 0 else f"exit code {exit_code}")
        finally:
            for handle in (stdout_handle, stderr_handle):
                if handle not in (subprocess.DEVNULL,) and hasattr(handle, "close"):
                    handle.close()

    # ------------------------------------------------------------ reporting

    def utilisation(self) -> float:
        """Fraction of cluster cores currently allocated (0.0 – 1.0)."""
        total = self.inventory.total_cores
        if total == 0:
            return 0.0
        return 1.0 - self.inventory.free_cores / total

    def job_states(self) -> Dict[int, JobState]:
        with self._lock:
            return {job_id: job.state for job_id, job in self._jobs.items()}


_DEFAULT_CLUSTER: Optional[SimulatedSlurmCluster] = None
_DEFAULT_LOCK = threading.Lock()


def default_cluster(nodes: int = 3, cores_per_node: int = 48) -> SimulatedSlurmCluster:
    """Return the process-wide shared cluster, creating it on first use.

    Providers and batch systems that are configured with ``cluster=None`` share
    this instance, mimicking "the site's batch system".
    """
    global _DEFAULT_CLUSTER
    with _DEFAULT_LOCK:
        if _DEFAULT_CLUSTER is None:
            _DEFAULT_CLUSTER = SimulatedSlurmCluster(
                NodeInventory.homogeneous(nodes, cores=cores_per_node)
            )
        return _DEFAULT_CLUSTER


def reset_default_cluster() -> None:
    """Shut down and forget the shared cluster (used between tests/benchmarks)."""
    global _DEFAULT_CLUSTER
    with _DEFAULT_LOCK:
        if _DEFAULT_CLUSTER is not None:
            _DEFAULT_CLUSTER.shutdown()
            _DEFAULT_CLUSTER = None
