"""The unified return shape of every engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.events import JobEvent


@dataclass
class ExecutionResult:
    """Outputs plus bookkeeping from one execution, whatever the engine.

    What every :meth:`~repro.api.engine.Engine.execute` returns: the runners
    build it directly, the Parsl engines from the plain output dict of
    ``run_tool_with_parsl`` or the resolved futures of
    ``CWLWorkflowBridge.run``.
    """

    #: The CWL output object (output id -> value), fully resolved.  Under
    #: ``on_error="continue"`` outputs poisoned by a failed step are ``None``.
    outputs: Dict[str, Any]
    #: ``"success"``, or ``"permanentFail"`` when ``on_error="continue"``
    #: completed a run with failed steps (on_error="stop" raises instead).
    status: str = "success"
    #: Registry name of the engine that produced this result.
    engine: str = ""
    #: Number of individual tool/expression jobs executed.
    jobs_run: int = 0
    #: Wall-clock seconds for the whole execution.
    wall_time_s: float = 0.0
    #: Per-job start/end events in observation order.
    events: List[JobEvent] = field(default_factory=list)
    #: Engine-specific extras (job store statistics, run directories, ...).
    details: Dict[str, Any] = field(default_factory=dict)
    #: The workflow dataflow plan (``WorkflowGraph.describe()`` — nodes, edges,
    #: critical path) when a Workflow was executed; ``None`` for single tools.
    plan: Optional[Dict[str, Any]] = None
    #: Job-cache accounting for this execution — ``{"hits": ..., "misses": ...}``
    #: (runner engines count exactly from per-job events; the Parsl engines
    #: report the store's counter delta) — or ``None`` when caching was off.
    cache_stats: Optional[Dict[str, int]] = None
    #: Failed node/step id -> error string (non-empty only under
    #: ``on_error="continue"``; with ``"stop"`` the first failure raises).
    failures: Dict[str, str] = field(default_factory=dict)
    #: Scheduler node states of the last workflow run
    #: (``pending``/``running``/``done``/``failed``/``skipped``); empty for
    #: single tools and engines that do not track them.
    node_states: Dict[str, str] = field(default_factory=dict)
    #: Per-stage wall time from the pipelined scheduler core
    #: (``stage_s``/``exec_s``/``collect_s`` cumulative seconds plus
    #: ``nodes``/``tiny_nodes``/``tiny_batches`` counts); ``None`` unless the
    #: run executed with ``pipeline=True``.
    stage_timings: Optional[Dict[str, Any]] = None

    def __getitem__(self, key: str) -> Any:
        """Convenience indexing straight into :attr:`outputs`."""
        return self.outputs[key]

    def cache_hits(self) -> int:
        """Number of jobs restored from the job cache (0 when caching is off)."""
        return int((self.cache_stats or {}).get("hits", 0))

    def job_names(self) -> List[str]:
        """Names of the jobs that ran, in start order."""
        return [e.job for e in self.events if e.kind == "start"]

    def retries(self) -> int:
        """Total retry events across all jobs (0 without a retry policy)."""
        return sum(1 for e in self.events if e.kind == "retry")

    def summary(self) -> str:
        """One human-readable line (used by CLIs in verbose mode)."""
        return (f"engine={self.engine or '?'} status={self.status} "
                f"jobs={self.jobs_run} wall_time={self.wall_time_s:.3f}s")
