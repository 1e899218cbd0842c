"""In-memory span tracer, installed from outside by attribute replacement.

A target is ``"module:name"`` or ``"module:Class.method"``.  Module-level
functions are replaced in *every* loaded ``repro.*`` namespace that binds the
same object (``from x import f`` copies the binding), methods on their class.
Spans stay in memory; the child writes them out once, after its timed region.

The current span lives in a ``ContextVar`` rather than a per-thread stack so
that coroutine targets (``launch_async``) nest correctly when several tasks
interleave on one event-loop thread.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(id, target index, parent id, thread id, start, end, thread cpu, counted)``
Span = Tuple[int, int, Optional[int], int, float, float, float, bool]

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "bench_span", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.targets: List[str] = []
        #: target -> number of bindings replaced; 0 means it did not resolve.
        self.patched: Dict[str, int] = {}
        self._ids = itertools.count()

    # ------------------------------------------------------------- wrapping

    def _wrap(self, target: str, fn: Callable,
              count_if: Optional[Callable[..., bool]]) -> Callable:
        index = len(self.targets)
        self.targets.append(target)
        ids, record = self._ids, self.spans.append
        get, set_, reset = _current.get, _current.set, _current.reset
        clock, cpu_clock, ident = time.perf_counter, time.thread_time, threading.get_ident

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args: Any, **kwargs: Any) -> Any:
                parent, sid = get(), next(ids)
                token = set_(sid)
                counted = count_if is None or count_if(*args, **kwargs)
                cpu0, t0 = cpu_clock(), clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1, cpu1 = clock(), cpu_clock()
                    reset(token)
                    record((sid, index, parent, ident(), t0, t1, cpu1 - cpu0, counted))
        else:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                parent, sid = get(), next(ids)
                token = set_(sid)
                counted = count_if is None or count_if(*args, **kwargs)
                cpu0, t0 = cpu_clock(), clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1, cpu1 = clock(), cpu_clock()
                    reset(token)
                    record((sid, index, parent, ident(), t0, t1, cpu1 - cpu0, counted))
        return traced

    def install(self, target: str,
                count_if: Optional[Callable[..., bool]] = None) -> int:
        """Replace ``target`` with a recording wrapper; returns bindings patched."""
        self.patched[target] = 0
        module_name, _, qualname = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return 0
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            return 0
        if path:
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            traced = self._wrap(target, raw.__func__ if kind else raw, count_if)
            setattr(owner, name, kind(traced) if kind else traced)
            self.patched[target] = 1
            return 1
        traced = self._wrap(target, raw, count_if)
        for loaded_name, module in list(sys.modules.items()):
            if module is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, traced)
                    self.patched[target] += 1
        return self.patched[target]

    # -------------------------------------------------------------- reading

    def self_times(self) -> Dict[int, Tuple[float, float]]:
        """Span id -> (wall, thread-cpu) self time: the span minus its
        same-thread child spans."""
        by_id = {span[0]: span for span in self.spans}
        own = {span[0]: [span[5] - span[4], span[6]] for span in self.spans}
        for sid, _target, parent, thread, start, end, cpu, _counted in self.spans:
            if parent is not None and parent in by_id and by_id[parent][3] == thread:
                own[parent][0] -= end - start
                own[parent][1] -= cpu
        return {sid: (wall, cpu) for sid, (wall, cpu) in own.items()}

    def root_durations(self) -> Dict[int, float]:
        """Thread id -> summed duration of spans with no same-thread parent."""
        by_id = {span[0]: span for span in self.spans}
        roots: Dict[int, float] = {}
        for _sid, _target, parent, thread, start, end, _cpu, _counted in self.spans:
            if parent is None or parent not in by_id or by_id[parent][3] != thread:
                roots[thread] = roots.get(thread, 0.0) + (end - start)
        return roots

    def dump(self) -> Dict[str, Any]:
        return {"targets": self.targets, "patched": self.patched,
                "span_fields": ["id", "target", "parent", "thread", "start", "end",
                                "thread_cpu", "counted"],
                "spans": self.spans}
