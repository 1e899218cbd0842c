"""The unified return shape of every engine, and the one function that
builds it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.api.events import EventRecorder, JobEvent

if TYPE_CHECKING:
    from repro.cwl.graph import WorkflowGraph
    from repro.cwl.runtime import RuntimeContext


@dataclass
class ExecutionResult:
    """Outputs plus bookkeeping from one execution, whatever the engine.

    What every :meth:`~repro.api.engine.Engine.execute` returns.  The
    built-in engines make it with :func:`run_result`, from what they ran.
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
    #: Job-cache accounting for this execution — ``{"hits": ..., "misses": ...}``,
    #: counted from its own per-job end events on every engine — or ``None``
    #: when caching was off.
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


def run_result(recorder: EventRecorder, context: "RuntimeContext", engine: str,
               outputs: Dict[str, Any], graph: Optional["WorkflowGraph"] = None,
               failures: Optional[Dict[str, BaseException]] = None,
               node_states: Optional[Dict[str, str]] = None,
               stage_timings: Optional[Dict[str, Any]] = None) -> ExecutionResult:
    """The result of one execution on a built-in engine.

    Every fact that is not the engine's own comes from the run's
    ``recorder`` (events, job count, cache counts, wall time since it was
    made), the :class:`~repro.cwl.graph.WorkflowGraph` the run executed
    (``graph``, the plan; ``None`` for a single tool) and its ``context``
    (whether caching was on).  The engine supplies the outputs, the failed
    nodes (under ``on_error="continue"``) and the node states.
    """
    events = recorder.events
    outcomes = [e.cache for e in events if e.kind == "end"]
    return ExecutionResult(
        outputs=outputs,
        status="permanentFail" if failures else "success",
        engine=engine,
        jobs_run=sum(1 for e in events if e.kind == "start"),
        wall_time_s=time.perf_counter() - recorder.started,
        events=events,
        plan=graph.describe() if graph is not None else None,
        cache_stats={"hits": outcomes.count("hit"), "misses": outcomes.count("miss")}
        if context.job_cache_dir() is not None else None,
        failures={node: str(exc) for node, exc in (failures or {}).items()},
        node_states=node_states or {},
        stage_timings=stage_timings,
    )
