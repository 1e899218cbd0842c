"""Continuations: work that yields where it would block.

A *continuation* is a generator.  The code before its first ``yield`` is its
inline segment: cheap, non-blocking work (a job-cache probe, workflow
plumbing, an expression).  What follows a bare ``yield`` is a blocking
segment (a subprocess spawn, a batch-system ``issue``, a backoff sleep).  A
continuation that waits on a future someone else completes (a Parsl
``AppFuture``) yields the future itself and reads its outcome once resumed.
The value it returns is its result.  Whoever drives a continuation decides
where each segment runs: :class:`~repro.cwl.scheduler.GraphScheduler` runs
the inline segment on the dispatching thread, hands a blocking segment to its
pool, and parks a continuation on the future it yielded until the future is
done, while :func:`finish` runs every segment on the calling thread, waiting
on each yielded future.  A continuation that returns without yielding never
leaves the thread that started it.
"""

from __future__ import annotations

import concurrent.futures as cf
import inspect
from typing import Any, Callable, Generator, Optional, TypeVar

T = TypeVar("T")

#: A generator that yields ``None`` at its blocking points, or the future it
#: waits on, and returns ``T``.
Continuation = Generator[Optional[cf.Future], None, T]


def finish(continuation: Continuation[T]) -> T:
    """Run ``continuation`` to its end on this thread and return its value."""
    while True:
        try:
            waited = next(continuation)
        except StopIteration as done:
            return done.value
        if waited is not None:
            cf.wait((waited,))


def as_continuation(fn: Callable[..., Any]) -> Callable[..., Continuation[Any]]:
    """``fn`` if it makes continuations; otherwise a function whose
    continuation yields at once and then calls ``fn``, because a plain
    callable may block anywhere and is all blocking segment."""
    if inspect.isgeneratorfunction(fn):
        return fn

    def blocking(*args: Any, **kwargs: Any) -> Continuation[Any]:
        yield
        return fn(*args, **kwargs)

    return blocking
