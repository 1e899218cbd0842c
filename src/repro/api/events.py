"""Per-job event stream shared by every engine.

Engines report the start, retries and end of each individual job (one
CommandLineTool or ExpressionTool invocation) to an :class:`EventRecorder`,
which timestamps the transitions, accumulates :class:`JobEvent` records for
the :class:`~repro.api.result.ExecutionResult`, and forwards them to the
user's :class:`ExecutionHooks` callbacks.  In a journalled run it is also the
one writer of the journal's per-job records: a ``retry`` record with each
retry event and a ``job`` record with each successful tool job's end event.
Recording is thread-safe: parallel runners and the Parsl dataflow deliver
events from worker threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

HookCallback = Callable[["JobEvent"], Any]


@dataclass
class JobEvent:
    """One job lifecycle transition observed during an execution."""

    job: str
    kind: str  # "start", "retry" or "end"
    timestamp: float
    ok: bool = True
    error: Optional[str] = None
    #: Wall-clock seconds between start and end (set on "end" events).
    duration_s: Optional[float] = None
    #: Job-cache outcome on "end" events: ``"hit"`` (outputs restored from
    #: the content-addressed store), ``"miss"`` (executed and stored), or
    #: ``None`` when caching was off or the job kind is uncacheable.
    cache: Optional[str] = None
    #: 1-based execution attempt under the run's
    #: :class:`~repro.cwl.retry.RetryPolicy`.  On ``"retry"`` events: the
    #: attempt that just failed; on ``"end"`` events: the attempt that
    #: produced the outcome (1 when no retry happened).
    attempt: int = 1


@dataclass
class ExecutionHooks:
    """User-facing callbacks invoked as jobs start, retry and finish."""

    on_job_start: Optional[HookCallback] = None
    on_job_end: Optional[HookCallback] = None
    #: Fired once per retry, before the backoff sleep; the event carries the
    #: failed attempt number and the error that triggered the retry.
    on_job_retry: Optional[HookCallback] = None


@dataclass
class _ActiveJob:
    """Token returned by :meth:`EventRecorder.job_started`."""

    job: str
    started_at: float


class EventRecorder:
    """Collects job events for one execution, fans them out to hooks and
    writes the matching records to the run's journal.

    Implements the observer protocol that every engine's job routine,
    :func:`~repro.cwl.runners.base.run_job`, reports to (a
    :class:`~repro.core.workflow_bridge.CWLWorkflowBridge` takes any
    object with it as its ``job_observer``): ``job_started(name) -> token``,
    ``job_retry(token, attempt, error, delay_s)`` and ``job_finished(token,
    ok, error, cache, attempt, tool, key, exit_code)``.  One recorder is
    made per execution, when it starts.
    """

    def __init__(self, hooks: Optional[ExecutionHooks] = None,
                 journal: Optional[Any] = None) -> None:
        self.hooks = hooks
        #: The run's :class:`~repro.cwl.journal.RunJournal`, or ``None``.
        self.journal = journal
        #: ``perf_counter`` when the execution started.
        self.started = time.perf_counter()
        #: Raw records: either a materialised :class:`JobEvent` (hook path) or
        #: a compact ``(kind, job, timestamp, ok, error, duration_s, cache,
        #: attempt)`` tuple.  Tuples become events lazily via :attr:`events`,
        #: so hook-less runs never pay dataclass construction on the hot path.
        self._records: List[Any] = []
        self._lock = threading.Lock()

    @property
    def events(self) -> List[JobEvent]:
        """Materialised event list (lazy: tuples become ``JobEvent`` here)."""
        with self._lock:
            records = list(self._records)
        return [
            r if type(r) is JobEvent else
            JobEvent(job=r[1], kind=r[0], timestamp=r[2], ok=r[3], error=r[4],
                     duration_s=r[5], cache=r[6], attempt=r[7])
            for r in records
        ]

    def job_started(self, job: str) -> _ActiveJob:
        now = time.time()
        hook = self.hooks.on_job_start if self.hooks else None
        if hook is None:
            record: Any = ("start", job, now, True, None, None, None, 1)
        else:
            record = JobEvent(job=job, kind="start", timestamp=now)
        with self._lock:
            self._records.append(record)
        if hook is not None:
            hook(record)
        return _ActiveJob(job=job, started_at=time.perf_counter())

    def job_retry(self, token: _ActiveJob, attempt: int,
                  error: Optional[str] = None,
                  delay_s: Optional[float] = None) -> None:
        """Record that attempt ``attempt`` of a job failed and will be retried."""
        if self.journal is not None:
            self.journal.record("retry", job=token.job, attempt=attempt, error=error,
                                delay_s=delay_s)
        hook = self.hooks.on_job_retry if self.hooks else None
        if hook is None:
            record: Any = ("retry", token.job, time.time(), False, error,
                           delay_s, None, attempt)
        else:
            record = JobEvent(
                job=token.job,
                kind="retry",
                timestamp=time.time(),
                ok=False,
                error=error,
                duration_s=delay_s,
                attempt=attempt,
            )
        with self._lock:
            self._records.append(record)
        if hook is not None:
            hook(record)

    def job_finished(self, token: _ActiveJob, ok: bool = True,
                     error: Optional[str] = None,
                     cache: Optional[str] = None,
                     attempt: int = 1, tool: Optional[str] = None,
                     key: Optional[str] = None,
                     exit_code: Optional[int] = None) -> None:
        """Record a job's end.  A successful tool job (one with an
        ``exit_code``) is also the journal's ``job`` record: the tool's id,
        its cache key and outcome (``"miss"`` unless it was a hit) and its
        exit code."""
        if self.journal is not None and ok and exit_code is not None:
            self.journal.record("job", tool=tool, key=key,
                                cache="hit" if cache == "hit" else "miss",
                                exit_code=exit_code)
        duration = time.perf_counter() - token.started_at
        hook = self.hooks.on_job_end if self.hooks else None
        if hook is None:
            record: Any = ("end", token.job, time.time(), ok, error,
                           duration, cache, attempt)
        else:
            record = JobEvent(
                job=token.job,
                kind="end",
                timestamp=time.time(),
                ok=ok,
                error=error,
                duration_s=duration,
                cache=cache,
                attempt=attempt,
            )
        with self._lock:
            self._records.append(record)
        if hook is not None:
            hook(record)
