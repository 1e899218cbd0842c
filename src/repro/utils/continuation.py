"""Continuations: work that yields where it would block.

A *continuation* is a generator.  The code before its first ``yield`` is its
inline segment: cheap, non-blocking work (a job-cache probe, workflow
plumbing, an expression).  Everything after it is the blocking segment (a
subprocess spawn, a batch-system ``issue``, a backoff sleep).  The value it
returns is its result.  Whoever drives a continuation decides where each
segment runs: :class:`~repro.cwl.scheduler.GraphScheduler` runs the inline
segment on the dispatching thread and hands the rest to its pool, while
:func:`finish` runs both on the calling thread.  A continuation that returns
without yielding never leaves the thread that started it.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Generator, TypeVar

T = TypeVar("T")

#: A generator that yields ``None`` at its blocking points and returns ``T``.
Continuation = Generator[None, None, T]


def finish(continuation: Continuation[T]) -> T:
    """Run ``continuation`` to its end on this thread and return its value."""
    while True:
        try:
            next(continuation)
        except StopIteration as done:
            return done.value


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
