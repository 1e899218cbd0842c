"""The cwltool-like reference runner: the ``reference`` engine.

This runner mirrors how ``cwltool`` executes documents:

* every job gets its own freshly created working directory,
* the tool document is re-validated and the job order deep-copied for every job
  (cwltool rebuilds its internal ``Process`` state per job),
* every JavaScript evaluation re-parses its expression and runs it in a newly
  built library scope (standard library rebuilt, ``expressionLib`` re-run) —
  the analogue of cwltool starting a node.js sandbox for expression batches,
  and the cost model of the paper's Figure 2.  That is a property of this
  runner (:meth:`ReferenceRunner.evaluator_for`), not a run option: a process
  object another engine compiled stays uncompiled here,
* with ``parallel=False`` jobs run strictly one at a time (plain ``cwltool``);
  with ``parallel=True`` independent steps and scatter jobs run on a thread
  pool (``cwltool --parallel``), which is the configuration the paper compares
  against.  Only a job that runs its tool goes to the pool: a job-cache hit is
  restored on the thread that dispatches the workflow's nodes, because an
  attempt probes the cache first and yields only on a miss, right before the
  spawn, or earlier when the probe would read or copy file bodies
  (:meth:`~repro.cwl.job.CommandLineJob.probe`).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

from repro.cwl.expressions.compiler import expression_lib_of
from repro.cwl.expressions.evaluator import ExpressionEvaluator
from repro.cwl.job import CommandLineJob, JobResult
from repro.cwl.runners.base import BaseRunner, RetryCallback
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool, Process
from repro.cwl.validate import ensure_valid
from repro.utils.continuation import Continuation


class ReferenceRunner(BaseRunner):
    """Serial (or thread-parallel) local CWL runner: the ``reference`` engine."""

    name = "reference"

    def evaluator_for(self, process: Process) -> ExpressionEvaluator:
        """A fresh evaluator that keeps nothing: a new library scope, and a
        new parse, for every JavaScript evaluation."""
        return ExpressionEvaluator(expression_lib=expression_lib_of(process))

    # ----------------------------------------------------------------- tooling

    def run_tool(self, tool: CommandLineTool, job_order: Dict[str, Any],
                 runtime_context: RuntimeContext,
                 on_retry: Optional[RetryCallback] = None) -> Continuation[JobResult]:
        # cwltool revalidates and rebuilds its job object for every invocation;
        # reproducing that per-job work keeps the runner comparison honest.
        ensure_valid(tool)

        def attempt(_n: int) -> Continuation[JobResult]:
            job = CommandLineJob(
                tool=tool,
                job_order=copy.deepcopy(job_order),
                runtime_context=runtime_context,
                evaluator_for=self.evaluator_for,
            )
            probe = yield from job.probe()
            cached = job.cached_result(probe)
            if cached is not None:
                return cached
            yield  # the spawn blocks
            return job.execute(probe)

        return self._with_retries(runtime_context, tool, attempt, on_retry)
