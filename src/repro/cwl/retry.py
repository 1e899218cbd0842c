"""Bounded retries with deterministic backoff.

Transient failures — a flaky tool exit, an injected fault, a reaped timeout —
are re-executed under a :class:`RetryPolicy` carried on
:class:`~repro.cwl.runtime.RuntimeContext` and honoured by all four engines.
Two properties matter for reproducibility:

* **Deterministic jitter.**  The backoff schedule is a pure function of
  ``(seed, job name, attempt)``: a sha1 over those three values supplies the
  jitter fraction, so two runs of the same workflow produce byte-identical
  schedules (no wall-clock or PRNG state leaks in).
* **Classified retryability.**  Whether a failure is worth retrying is decided
  from the same classification the conformance harness compares on
  (:func:`repro.cwl.errors.exit_class`): validation errors,
  :class:`~repro.cwl.errors.UnsupportedRequirement` and expression failures
  never retry — re-running cannot fix a bad document — while timeouts, listed
  exit codes and listed error classes do.

:func:`retrying` is the one retry loop every execution path shares, so fault
injection and attempt accounting behave identically everywhere.  It is a
continuation (:mod:`repro.utils.continuation`): the runners' ``run_tool``
yields from it, and it yields before every backoff sleep, so a wait never
holds the thread that dispatches workflow nodes.  :func:`execute_with_retries`
runs it to the end for a plain callable: on both Parsl engines, the
execution-side executor every ``CWLApp`` invocation goes through.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.cwl.errors import JobFailure, JobTimeout, exit_class, unwrap_failure
from repro.utils.continuation import Continuation, as_continuation, finish

#: Exit classes that retrying can never fix: the document (or the engine's
#: supported subset) is the problem, not the execution.
NEVER_RETRY_EXIT_CLASSES = frozenset({"invalid", "unsupported", "expressionError"})


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-execute a failed job, and how long to wait.

    The delay before retry ``n`` (1-based attempt that just failed) is::

        min(backoff_s * multiplier ** (n - 1), max_backoff_s) * (1 + jitter * u)

    where ``u`` in ``[0, 1)`` is the deterministic jitter fraction derived
    from ``(seed, job, n)``.
    """

    #: Total attempts including the first one; ``1`` disables retries.
    max_attempts: int = 1
    #: Base delay in seconds before the first retry.
    backoff_s: float = 0.05
    #: Multiplier applied per subsequent retry (exponential backoff).
    multiplier: float = 2.0
    #: Upper bound on any single delay.
    max_backoff_s: float = 30.0
    #: Maximum jitter as a fraction of the base delay (0 disables jitter).
    jitter: float = 0.5
    #: Seed mixed into the jitter hash; same seed → same schedule.
    seed: int = 0
    #: Tool exit codes considered transient (retried when hit).
    retryable_exit_codes: Tuple[int, ...] = ()
    #: Stable error-class names (``type(exc).__name__`` after unwrapping)
    #: considered transient in addition to :class:`JobTimeout`.
    retryable_errors: Tuple[str, ...] = ("OSError", "ConnectionError")

    def jitter_fraction(self, job: str, attempt: int) -> float:
        """Deterministic ``[0, 1)`` fraction for ``(seed, job, attempt)``."""
        digest = hashlib.sha1(
            f"{self.seed}\x00{job}\x00{attempt}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def delay_s(self, job: str, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        base = min(self.backoff_s * self.multiplier ** (attempt - 1),
                   self.max_backoff_s)
        return base * (1.0 + self.jitter * self.jitter_fraction(job, attempt))

    def schedule(self, job: str) -> Tuple[float, ...]:
        """The full backoff schedule for ``job`` — one delay per retry.

        A pure function of the policy and the job name; the determinism tests
        assert two computations of this are byte-identical.
        """
        return tuple(self.delay_s(job, attempt)
                     for attempt in range(1, self.max_attempts))

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is a transient failure under this policy."""
        exc = unwrap_failure(exc)
        if exit_class(exc) in NEVER_RETRY_EXIT_CLASSES:
            return False
        if isinstance(exc, JobTimeout):
            return True
        # A non-permitted exit code (ours or Parsl's BashExitFailure) retries
        # exactly when the code is listed as transient.
        code = None
        if isinstance(exc, JobFailure):
            code = exc.exit_code
        elif type(exc).__name__ == "BashExitFailure":
            code = getattr(exc, "exitcode", None)
        if code is not None:
            return code in self.retryable_exit_codes
        return type(exc).__name__ in self.retryable_errors


def retrying(
    attempt_fn: Callable[[int], Continuation[Any]],
    *,
    policy: Optional[RetryPolicy],
    job: str,
    fault_plan: Optional[Any] = None,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> Continuation[Any]:
    """Run ``attempt_fn(attempt)``'s continuation under ``policy``, injecting
    faults from ``fault_plan``; the loop yields where the attempt does.

    The fault plan is consulted *before* each attempt (ahead of any cache
    probe inside the attempt), so warm and cold cache modes observe identical
    injected behaviour on every engine; the loop yields first when the plan
    delays the attempt.  ``on_retry(attempt, exc, delay)`` fires once per
    retry, then the loop yields and sleeps ``delay`` (``time.sleep`` unless
    ``sleep`` is given).
    """
    attempt = 1
    while True:
        try:
            if fault_plan is not None:
                if fault_plan.delays(job, attempt):
                    yield
                fault_plan.apply(job, attempt)
            return (yield from attempt_fn(attempt))
        except BaseException as exc:
            if (isinstance(exc, GeneratorExit) or policy is None
                    or attempt >= policy.max_attempts or not policy.retryable(exc)):
                raise
            delay = policy.delay_s(job, attempt)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
        if delay > 0:
            yield
            (sleep or time.sleep)(delay)
        attempt += 1


def execute_with_retries(fn: Callable[[int], Any], **options: Any) -> Any:
    """:func:`retrying` over the plain callable ``fn(attempt)``, run to the
    end on the calling thread; ``options`` are its keyword arguments."""
    return finish(retrying(as_continuation(fn), **options))
