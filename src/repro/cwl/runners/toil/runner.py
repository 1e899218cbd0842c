"""The Toil-like CWL runner: the ``toil`` engine.

Only a session that asks for ``toil`` imports this module and, with it, the
job store, the batch systems and the cluster simulator behind them.

Execution model (mirroring ``toil-cwl-runner``):

1. every tool invocation becomes a job *description* appended to the
   file-based job store's log,
2. the job is issued to a batch system (local thread pool or the simulated
   Slurm cluster) and each of its state transitions (issued → running →
   done/failed) appends one record to the log,
3. output files are imported into the job store (content-addressed copies) so
   a resumed workflow could reuse them,
4. workflow-level dataflow (step ordering, scatter, ``when``) reuses the shared
   :class:`~repro.cwl.workflow.WorkflowEngine`, with jobs running concurrently
   when the batch system allows it.

Every attempt probes the job cache before step 1: a hit is never issued, and
its description is one record, already ``done``.  A miss hands its probe to
the issued job, so the invocation is keyed once.  An attempt is a
continuation that yields only before the job is described and issued, so in
a workflow a hit completes on the dispatching thread.

The per-job store records and (for the Slurm batch system) the per-task
scheduler round trips are what differentiate this runner's scaling behaviour
from the Parsl bridge in Figure 1.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, Optional

from repro.api.events import ExecutionHooks
from repro.api.result import ExecutionResult
from repro.cwl.cow import job_order_view
from repro.cwl.job import CommandLineJob, JobResult
from repro.cwl.runners.base import BaseRunner, RetryCallback
from repro.cwl.runners.toil.batch import BatchSystem, SingleMachineBatchSystem
from repro.cwl.runners.toil.jobstore import FileJobStore, StoredJob
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool
from repro.cwl.types import is_file_value
from repro.utils.continuation import Continuation
from repro.utils.logging_config import get_logger

logger = get_logger("cwl.runners.toil")


class ToilStyleRunner(BaseRunner):
    """Job-store based CWL runner with pluggable batch systems: the ``toil``
    engine."""

    name = "toil"

    def __init__(
        self,
        job_store_dir: Optional[str] = None,
        batch_system: Optional[BatchSystem] = None,
        runtime_context: Optional[RuntimeContext] = None,
        parallel: bool = True,
        max_workers: int = 8,
        destroy_job_store_on_close: Optional[bool] = None,
        **options: Any,
    ) -> None:
        super().__init__(runtime_context=runtime_context, parallel=parallel,
                         max_workers=max_workers, **options)
        #: Whether :meth:`close` removes the job store; ``None`` = exactly
        #: when this runner created it as a temp directory, so sessions never
        #: leak ``toil-jobstore-*`` directories while a caller-supplied
        #: ``job_store_dir`` is theirs to keep unless they ask.
        self.destroy_job_store_on_close = (job_store_dir is None
                                           if destroy_job_store_on_close is None
                                           else destroy_job_store_on_close)
        self.job_store = FileJobStore(job_store_dir or tempfile.mkdtemp(prefix="toil-jobstore-"))
        self.batch_system = batch_system or SingleMachineBatchSystem(max_cores=max_workers)

    def execute(self, process: Any, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        result = super().execute(process, job_order, hooks)
        result.details["job_store"] = self.job_store.stats()
        return result

    # ------------------------------------------------------------------ tools

    def run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                 runtime_context: RuntimeContext,
                 on_retry: Optional[RetryCallback] = None) -> Continuation[JobResult]:
        requirements = self._job_requirements(tool)
        name = tool.job_name
        #: The job's one description, shared by every attempt.
        stored: Optional[StoredJob] = None

        def record(state: str, error: Optional[str] = None) -> None:
            """Persist a state: the first call appends the description, born
            in ``state``; later calls append the state change."""
            nonlocal stored
            if stored is None:
                stored = self.job_store.create_job(
                    name=name, requirements=requirements,
                    payload={"inputs": _summarise_job_order(job_order)}, state=state)
            else:
                self.job_store.update_job(stored, state=state, error=error)

        def attempt(_n: int) -> Continuation[JobResult]:
            job = CommandLineJob(
                tool=tool,
                # Copy-on-write view instead of deepcopy: scatter loops issue
                # this per job, and the leaves never needed copying.
                job_order=job_order_view(job_order),
                runtime_context=runtime_context,
                evaluator_for=self.evaluator_for,
            )
            # Probe the job cache before anything is written or issued: a
            # hit restores the outputs without the batch-system round trip
            # (Toil likewise reuses job-store results without rescheduling
            # the job) and is described once, as done.
            probe = yield from job.probe(self.job_store.device)
            cached = job.cached_result(probe)
            if cached is not None:
                self._import_output_files(cached.outputs)
                record("done")
                return cached
            yield  # issuing blocks until the batch system ran the job

            def payload() -> JobResult:
                record("running")
                result = job.execute(probe)
                self._import_output_files(result.outputs)
                return result

            if stored is None:
                record("new")
            record("issued")
            cores = int(requirements.get("coresMin", 1))
            future = self.batch_system.issue(name, payload, cores=cores)
            try:
                result = future.result()
            except Exception as exc:
                record("failed", error=str(exc))
                raise
            record("done")
            return result

        # The retry loop wraps the whole probe-and-issue path, so injected
        # faults fire ahead of the cache probe (identical to the other
        # engines) and each re-attempt is re-issued through the batch system.
        return self._with_retries(runtime_context, tool, attempt, on_retry)

    # --------------------------------------------------------------- plumbing

    @staticmethod
    def _job_requirements(tool: CommandLineTool) -> Dict[str, Any]:
        resource_req = tool.get_requirement("ResourceRequirement") or {}
        return {
            "coresMin": resource_req.get("coresMin", 1),
            "ramMin": resource_req.get("ramMin", 256),
        }

    def _import_output_files(self, outputs: Dict[str, Any]) -> None:
        """Copy every produced File into the job store (Toil's behaviour)."""

        def visit(value: Any) -> None:
            if is_file_value(value):
                path = value.get("path")
                if path and os.path.exists(path):
                    value["jobStoreFileID"] = self.job_store.import_file(path)
            elif isinstance(value, list):
                for item in value:
                    visit(item)
            elif isinstance(value, dict):
                for item in value.values():
                    visit(item)

        visit(outputs)

    def close(self) -> None:
        """Shut down the batch system, close the job store's log, remove the
        store (see :attr:`destroy_job_store_on_close`) and reap the context's
        scratch directories.  Idempotent: closing twice is safe, so session
        teardown is deterministic.
        """
        self.batch_system.shutdown()
        if self.destroy_job_store_on_close:
            self.job_store.destroy()
        else:
            self.job_store.close()
        super().close()


def _summarise_job_order(job_order: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON-safe summary of the job order for the stored job description."""
    summary: Dict[str, Any] = {}
    for key, value in job_order.items():
        if is_file_value(value):
            summary[key] = {"class": "File", "basename": value.get("basename")}
        elif isinstance(value, (str, int, float, bool)) or value is None:
            summary[key] = value
        else:
            summary[key] = repr(value)[:200]
    return summary
