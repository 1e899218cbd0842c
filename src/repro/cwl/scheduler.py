"""Event-driven scheduler for :class:`~repro.cwl.graph.WorkflowGraph` nodes.

Replaces the polling loops the workflow engine used to run (re-scanning every
pending step under a lock, O(V²) in the step count) and the nested
per-scatter-step thread pools.  Scheduling is dependency-counting: every node
carries its predecessor count; a completion event decrements each successor's
count and enqueues the ones that hit zero into a priority heap (critical-path
priority first, insertion order as the tie-break).

One dispatch loop runs every node, on the thread that called :meth:`run`.  A
node's execution is a continuation (:mod:`repro.utils.continuation`): a
generator that yields once it reaches its first blocking point (a spawn, a
batch-system ``issue``, a retry backoff).  The loop runs the inline segment
itself.  A node that returns without yielding completes right there, with no
pool submission and no wake-up: cache hits, ingress/egress/scatter/gather,
ExpressionTool steps and skipped scopes.  Only the rest of a node that
yielded goes to **one** bounded pool.  A node that yields a future (the
Parsl bridge's ``AppFuture``) parks on it instead: the future's
done-callback queues the node, and the loop resumes it inline, so no thread
waits on a future.  ``max_workers`` caps the nodes in flight, pooled or
parked, however deeply scatter and subworkflows nest.  Serial mode
(``parallel=False``) is the case where every continuation runs inline to its
end.  The scheduler lock is never held while a node runs.  A plain callable
given as the executor is all blocking segment.

Dynamic expansion: a node's executor may return an :class:`Expansion` —
freshly created nodes (scatter shards, shard subgraphs, a gather node) that
join the running schedule.  ``retarget`` moves the expanding node's successors
onto the expansion's terminal node (the gather), so downstream consumers wait
for assembled scatter outputs while the shards themselves interleave freely
with every other ready node.
"""

from __future__ import annotations

import collections
import concurrent.futures as cf
import functools
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    import asyncio

from repro.cwl.errors import WorkflowException
from repro.cwl.graph import GraphNode, WorkflowGraph
from repro.utils.continuation import Continuation, as_continuation, finish

#: A node executor: makes one node's continuation, whose value is an optional
#: :class:`Expansion` of new nodes to schedule.  A plain callable (returning
#: the expansion) is accepted too and runs wholly as a blocking segment.
NodeExecutor = Callable[[GraphNode], Any]

#: Scheduler node states (also what the run journal records).
NODE_PENDING = "pending"
NODE_RUNNING = "running"
NODE_DONE = "done"
NODE_FAILED = "failed"
NODE_SKIPPED = "skipped"


@dataclass
class Expansion:
    """Nodes created at runtime by executing a node (scatter expansion)."""

    #: The new nodes, in creation order.
    nodes: List[GraphNode] = field(default_factory=list)
    #: node id -> predecessor node ids (all within this expansion).
    preds: Dict[str, List[str]] = field(default_factory=dict)
    #: Successors of the expanding node are moved onto this node (the gather),
    #: so downstream work waits for assembled outputs, not the scatter node.
    retarget: Optional[str] = None


class GraphScheduler:
    """Run every node of a graph, respecting dependencies and ``max_workers``."""

    def __init__(self, graph: WorkflowGraph, execute: NodeExecutor,
                 parallel: bool = False, max_workers: int = 8,
                 on_error: str = "stop", journal: Optional[object] = None) -> None:
        if on_error not in ("stop", "continue"):
            raise ValueError(f"on_error must be 'stop' or 'continue', got {on_error!r}")
        self.graph = graph
        self.execute = as_continuation(execute)
        #: ``False`` runs every continuation inline to its end; ``True`` hands
        #: the blocking segment of a node that yields to the pool.
        self.parallel = parallel
        self.max_workers = max(1, int(max_workers))
        #: ``"stop"`` aborts the whole DAG on the first failed node;
        #: ``"continue"`` poisons only the failed node's transitive successors
        #: (marked ``skipped``, cwltool-style permanentFail propagation) and
        #: lets independent branches finish.
        self.on_error = on_error
        #: Optional :class:`~repro.cwl.journal.RunJournal`; every node state
        #: transition is appended to it.
        self.journal = journal
        self._lock = threading.Lock()
        self._event = threading.Condition(self._lock)
        self._nodes: Dict[str, GraphNode] = dict(graph.nodes)
        self._indegree: Dict[str, int] = dict(graph.indegree)
        self._successors: Dict[str, List[str]] = {nid: list(succs)
                                                  for nid, succs in graph.successors.items()}
        self._ready: List = []          # heap of (-priority, seq, node_id)
        self._seq = itertools.count()
        self._pending = len(self._nodes)
        self._completed: set = set()
        self._skipped: set = set()
        #: Nodes that left the dispatcher mid-way (handed to the pool, or
        #: parked on a future) and have not finished yet.
        self._inflight = 0
        #: Parked nodes whose future is done, for the dispatcher to resume.
        self._resumable: Deque[Tuple[str, Continuation[Any]]] = collections.deque()
        self._failure: Optional[BaseException] = None
        #: Made when the first node yields: an all-inline run starts no thread.
        self._pool: Optional[cf.ThreadPoolExecutor] = None
        #: Final state per node id (``pending``/``running``/``done``/
        #: ``failed``/``skipped``) — inspect after :meth:`run`.
        self.states: Dict[str, str] = {nid: NODE_PENDING for nid in self._nodes}
        #: node id -> the exception that failed it (``on_error="continue"``).
        self.failures: Dict[str, BaseException] = {}

    # ------------------------------------------------------------------ public

    def run(self) -> None:
        """Execute all nodes; raises the first node failure (``on_error="stop"``).

        With ``on_error="continue"`` node failures do not raise — they are
        collected in :attr:`failures`, their transitive successors are marked
        ``skipped`` in :attr:`states`, and every independent branch still
        executes.  After a failure under ``"stop"`` every node already in
        flight still runs to its end (its job's end is reported) and releases
        no successor.  An interrupt (any exception that is not an
        :class:`Exception`, such as :class:`KeyboardInterrupt`) aborts the run
        under either policy.
        """
        for node_id in self.graph.topological_order():
            if self._indegree[node_id] == 0:
                self._push(node_id)
        try:
            self._dispatch()
        except BaseException as exc:  # interrupt: stop feeding, don't block
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            if self._pool is not None:
                # wait=False: in-flight jobs may sit in minutes-long subprocess
                # waits; the caller reaps those (RuntimeContext.terminate_processes)
                # and the workers then drain on their own threads.
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            raise
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._failure is not None:
            raise self._failure
        self._check_drained()

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        """The dispatch loop: resume parked nodes whose future is done, pop
        ready nodes, highest priority first, and run each one's inline
        segment; wait only while the in-flight window is full or nothing is
        ready.  Once the run failed or finished it only waits for the nodes
        in flight."""
        while True:
            with self._lock:
                while True:
                    if self._resumable:
                        node_id, continuation = self._resumable.popleft()
                        break
                    if self._failure is None and self._pending:
                        if self._ready and self._inflight < self.max_workers:
                            node_id, continuation = self._pop(), None
                            self._set_state(node_id, NODE_RUNNING)
                            break
                    if not self._inflight:
                        return  # done, failed and drained, or stalled (_check_drained)
                    self._event.wait()
            self._step(node_id, continuation)

    def _step(self, node_id: str, continuation: Optional[Continuation[Any]]) -> None:
        """Run one node on this thread up to its next yield: from its start,
        or (``continuation`` given) from where it parked.  A node that
        yielded ``None`` continues on the pool (or, serially, right here); one
        that yielded a future parks on it."""
        detached = continuation is not None
        try:
            if continuation is None:
                continuation = self.execute(self._nodes[node_id])
            if self.parallel:
                waited = next(continuation)
                yielded = True
            else:
                expansion, yielded = finish(continuation), False
        except StopIteration as done:
            expansion, yielded = done.value, False
        except BaseException as exc:  # noqa: BLE001 — classified below
            self._finished(node_id, failure=exc, detached=detached)
            if not isinstance(exc, Exception):
                raise  # an interrupt unwinds the dispatcher
            return
        if not yielded:
            self._finished(node_id, expansion, detached=detached)
            return
        if not detached:
            with self._lock:
                self._inflight += 1
        if waited is None:
            self._hand_off(node_id, continuation)
        else:
            waited.add_done_callback(functools.partial(self._wake, node_id, continuation))

    def _wake(self, node_id: str, continuation: Continuation[Any], _future: Any) -> None:
        """A parked node's future is done: queue the node for the dispatcher."""
        with self._lock:
            self._resumable.append((node_id, continuation))
            self._event.notify()

    def _hand_off(self, node_id: str, continuation: Continuation[Any]) -> None:
        """Give the rest of a node that yielded to the pool.  A pool that
        cannot take it (no thread can be started, the interpreter is shutting
        down) fails the run under either ``on_error`` policy: the scheduler
        failed, not the node."""
        try:
            if self._pool is None:
                self._pool = cf.ThreadPoolExecutor(max_workers=self.max_workers,
                                                   thread_name_prefix="cwl-dag")
            self._pool.submit(self._worker, node_id, continuation)
        except BaseException as exc:
            with self._lock:
                self._inflight -= 1
                self.failures[node_id] = exc
                self._set_state(node_id, NODE_FAILED)
                if self._failure is None:
                    self._failure = exc
            continuation.close()
            if not isinstance(exc, Exception):
                raise

    def _worker(self, node_id: str, continuation: Continuation[Any]) -> None:
        """A pool thread: run the rest of a node that yielded."""
        try:
            expansion = finish(continuation)
        except BaseException as exc:  # noqa: BLE001 — re-raised by run()
            self._finished(node_id, failure=exc, detached=True)
        else:
            self._finished(node_id, expansion, detached=True)

    def _finished(self, node_id: str, expansion: Optional[Expansion] = None,
                  failure: Optional[BaseException] = None, detached: bool = False) -> None:
        """Record how a node ended; one that left the dispatcher on its way
        (``detached``: pooled or parked) leaves the in-flight window and wakes
        the dispatcher."""
        with self._lock:
            if detached:
                self._inflight -= 1
            try:
                if failure is not None:
                    self._node_failed_locked(node_id, failure)
                elif self._failure is None:
                    self._complete(node_id, expansion)
            except BaseException as exc:  # noqa: BLE001 — bookkeeping fault
                # A bug in completion bookkeeping (e.g. a malformed dynamic
                # expansion) must surface as the run's failure — swallowing it
                # here would leave the dispatcher waiting forever.
                if self._failure is None:
                    self._failure = exc
            if detached:
                self._event.notify()

    # ------------------------------------------------------------- bookkeeping

    def _push(self, node_id: str) -> None:
        heapq.heappush(self._ready, (-self._nodes[node_id].priority,
                                     next(self._seq), node_id))

    def _pop(self) -> str:
        return heapq.heappop(self._ready)[2]

    def _set_state(self, node_id: str, state: str) -> None:
        self.states[node_id] = state
        if self.journal is not None:
            self.journal.node_state(node_id, state)

    def _complete(self, node_id: str, expansion: Optional[Expansion]) -> None:
        """Record a completion: integrate any expansion, wake successors."""
        if expansion is not None and expansion.nodes:
            self._apply_expansion(node_id, expansion)
        for successor in self._successors.get(node_id, ()):
            self._indegree[successor] -= 1
            if self._indegree[successor] == 0 and successor not in self._skipped:
                self._push(successor)
        self._completed.add(node_id)
        self._pending -= 1
        self._set_state(node_id, NODE_DONE)

    def _node_failed_locked(self, node_id: str, exc: BaseException) -> None:
        """Record a node failure (the caller holds the lock).

        ``on_error="stop"``: the exception becomes the run's failure and
        aborts the DAG.  ``on_error="continue"``: the failure poisons only the
        node's transitive successors — each is marked ``skipped`` and removed
        from the schedule — while every independent branch keeps running.  An
        interrupt aborts the DAG under either policy.
        """
        self.failures[node_id] = exc
        self._set_state(node_id, NODE_FAILED)
        if self.on_error != "continue" or not isinstance(exc, Exception):
            if self._failure is None:
                self._failure = exc
            return
        self._pending -= 1
        for skipped_id in self._transitive_successors(node_id):
            if (skipped_id in self._completed or skipped_id in self._skipped
                    or skipped_id in self.failures):
                continue
            self._skipped.add(skipped_id)
            self._pending -= 1
            self._set_state(skipped_id, NODE_SKIPPED)

    def _transitive_successors(self, node_id: str) -> List[str]:
        """Every node reachable from ``node_id`` via dependency edges."""
        seen: set = set()
        frontier = list(self._successors.get(node_id, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._successors.get(current, ()))
        return sorted(seen)

    def _apply_expansion(self, node_id: str, expansion: Expansion) -> None:
        base_priority = self._nodes[node_id].priority
        for node in expansion.nodes:
            if node.id in self._nodes:
                raise WorkflowException(f"duplicate dynamic node id {node.id!r}")
            # Dynamic nodes inherit the expanding node's critical-path rank.
            node.priority = base_priority
            self._nodes[node.id] = node
            self.states[node.id] = NODE_PENDING
            self._successors[node.id] = []
            self._indegree[node.id] = 0
        for new_id, preds in expansion.preds.items():
            self._indegree[new_id] = len(preds)
            for pred in preds:
                self._successors[pred].append(new_id)
        self._pending += len(expansion.nodes)
        if expansion.retarget is not None:
            moved = self._successors.get(node_id, [])
            self._successors[expansion.retarget].extend(moved)
            self._successors[node_id] = []
        for node in expansion.nodes:
            if self._indegree[node.id] == 0:
                self._push(node.id)

    def _check_drained(self) -> None:
        if not self._pending:
            return
        resolved = self._completed | self._skipped | set(self.failures)
        stalled = sorted(set(self._nodes) - resolved)
        predecessors: Dict[str, List[str]] = {nid: [] for nid in self._nodes}
        for pred, succs in self._successors.items():
            for succ in succs:
                predecessors.setdefault(succ, []).append(pred)
        details = []
        for node_id in stalled[:20]:
            unmet = sorted(p for p in predecessors.get(node_id, ())
                           if p not in self._completed)
            details.append(
                f"{node_id} (indegree {self._indegree.get(node_id)}, "
                f"unmet: {', '.join(unmet) if unmet else '<none>'})")
        if len(stalled) > 20:
            details.append(f"... and {len(stalled) - 20} more")
        raise WorkflowException(
            f"workflow stalled: {len(stalled)} node(s) cannot run with "
            f"{self._inflight} in flight; stalled nodes: " + "; ".join(details))


class _CallableStageExecutor:
    """Adapt a :data:`NodeExecutor` to the three-stage protocol.

    The whole node runs in the exec lane, its continuation driven to the end
    there; stage and collect are no-ops and nothing is tiny.  Used when
    :class:`PipelineScheduler` is handed a bare callable instead of a stage
    executor.
    """

    __slots__ = ("_execute",)

    def __init__(self, execute: NodeExecutor) -> None:
        self._execute = as_continuation(execute)

    def is_tiny(self, node: GraphNode) -> bool:
        return False

    def stage(self, node: GraphNode) -> Any:
        return None

    def execute(self, node: GraphNode, staged: Any) -> Any:
        return finish(self._execute(node))

    def collect(self, node: GraphNode, staged: Any, result: Any) -> Optional[Expansion]:
        return result


class PipelineScheduler(GraphScheduler):
    """Asyncio-cored scheduler: each node is a stage→exec→collect pipeline.

    The dispatcher is one event loop; staging of ready successors and output
    collection of finished jobs run on a small blocking pool (``max_workers``
    threads, ``cwl-pipe`` prefix) while subprocess execution runs on a
    supervised exec lane (at most ``max_inflight`` threads, ``cwl-exec``
    prefix), so the three steps of *different* jobs overlap freely.  An
    admission semaphore bounds the in-flight window to ``max_inflight`` and
    per-stage semaphores backpressure staging/collection, so a 10k-node
    ready frontier never explodes threads or memory: the thread bound is
    ``max_workers + max_inflight`` regardless of graph width.

    Tiny-job batching: nodes the executor declares *tiny* (cache-hit replays,
    zero-cost expression/plumbing nodes) are coalesced — consecutive ready
    runs execute inline on the event loop with no task, no pool round-trip
    and no per-node loop iteration, then yield once per batch.

    The executor is duck-typed: ``stage(node)``, ``execute(node, staged)``,
    ``collect(node, staged, result) -> Optional[Expansion]``,
    ``is_tiny(node)``.  A plain callable is adapted (everything in the exec
    lane, nothing tiny).  All :class:`GraphScheduler` bookkeeping — heap
    order, dynamic expansion, ``on_error`` poisoning, journal state
    transitions, stall reporting — is inherited unchanged, which is what
    keeps the two cores' observable semantics identical.
    """

    #: Upper bound on one inline tiny run before yielding to the loop.
    TINY_BATCH_MAX = 64

    def __init__(self, graph: WorkflowGraph, execute: Optional[NodeExecutor] = None,
                 *, executor: Optional[Any] = None, max_inflight: int = 64,
                 max_workers: int = 8, on_error: str = "stop",
                 journal: Optional[object] = None) -> None:
        if executor is None:
            if execute is None:
                raise ValueError("PipelineScheduler needs an executor or a callable")
            executor = _CallableStageExecutor(execute)
        # Every engine imports this module and only this opt-in core uses
        # asyncio (40 ms of import), so the name is bound when the first
        # pipelined scheduler is built, not at import.
        global asyncio
        import asyncio
        super().__init__(graph, execute or (lambda node: None), parallel=True,
                         max_workers=max_workers, on_error=on_error,
                         journal=journal)
        self.executor = executor
        self.max_inflight = max(1, int(max_inflight))
        #: Cumulative wall time spent in each pipeline step, plus node/batch
        #: counts — surfaced as ``ExecutionResult.stage_timings``.
        self.stage_timings: Dict[str, Any] = {
            "stage_s": 0.0, "exec_s": 0.0, "collect_s": 0.0,
            "nodes": 0, "tiny_nodes": 0, "tiny_batches": 0,
        }
        self._blocking_pool: Optional[cf.ThreadPoolExecutor] = None
        self._exec_pool: Optional[cf.ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ public

    def run(self) -> None:
        for node_id in self.graph.topological_order():
            if self._indegree[node_id] == 0:
                self._push(node_id)
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # interrupt: stop feeding, don't block
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            for pool in (self._blocking_pool, self._exec_pool):
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
            self._blocking_pool = self._exec_pool = None
            raise
        if self._failure is not None:
            raise self._failure
        self._check_drained()

    # -------------------------------------------------------------- dispatcher

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._admission = asyncio.Semaphore(self.max_inflight)
        self._stage_sem = asyncio.Semaphore(self.max_workers)
        self._collect_sem = asyncio.Semaphore(self.max_workers)
        self._wake = asyncio.Event()
        blocking = self._blocking_pool = cf.ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="cwl-pipe")
        exec_pool = self._exec_pool = cf.ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="cwl-exec")
        tasks = self._task_set = set()
        try:
            while True:
                progressed = await self._dispatch_ready(loop, blocking,
                                                        exec_pool, tasks)
                with self._lock:
                    finished = self._pending == 0 or self._failure is not None
                if not tasks and (finished or not progressed):
                    # Done, failed-and-drained, or stalled (reported by
                    # _check_drained after the pools wind down).
                    break
                if not progressed:
                    # Nothing dispatchable (admission full, or ready empty).
                    # Consume one wake signal per rescan: if a completion
                    # already landed, rescan immediately; otherwise park.
                    # Never skip the await based on heap state alone — a
                    # ready-but-inadmissible top would busy-spin the loop
                    # and starve the very tasks that would free a slot.
                    if self._wake.is_set():
                        self._wake.clear()
                        continue
                    await self._wake.wait()
        except BaseException as exc:  # interrupt unwinding the dispatcher
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            for task in list(tasks):
                task.cancel()
            # wait=False: in-flight jobs may sit in minutes-long subprocess
            # waits; the caller reaps those (RuntimeContext.terminate_processes)
            # and the workers then drain on their own threads.
            blocking.shutdown(wait=False, cancel_futures=True)
            exec_pool.shutdown(wait=False, cancel_futures=True)
            raise
        blocking.shutdown(wait=True)
        exec_pool.shutdown(wait=True)
        self._blocking_pool = self._exec_pool = None

    async def _dispatch_ready(self, loop, blocking, exec_pool, tasks) -> bool:
        """Drain the ready heap in priority order; return whether we did work.

        Tiny runs execute inline; heavy nodes become pipeline tasks while
        admission slots remain.  Stops (without busy-waiting) when the heap
        is empty, the in-flight window is full, or the run has failed.
        """
        progressed = False
        while True:
            with self._lock:
                if self._failure is not None or not self._ready:
                    return progressed
                top_id = self._ready[0][2]
                tiny = self.executor.is_tiny(self._nodes[top_id])
                if not tiny and self._admission.locked():
                    return progressed  # backpressure: wait for a completion
                node_id = self._pop()
                self._set_state(node_id, NODE_RUNNING)
            progressed = True
            if tiny:
                await self._run_tiny_batch(node_id)
            else:
                await self._admission.acquire()
                with self._lock:
                    self._inflight += 1
                task = loop.create_task(
                    self._pipeline(node_id, loop, blocking, exec_pool))
                tasks.add(task)

    async def _run_tiny_batch(self, first_id: str) -> None:
        """Execute ``first_id`` plus consecutive ready tiny nodes inline.

        No task, no pool round-trip, no per-node event-loop iteration: the
        whole run executes synchronously on the loop, then yields once so
        completions of heavy jobs can interleave between batches.
        """
        batch = 0
        node_id: Optional[str] = first_id
        started = time.perf_counter()
        while node_id is not None:
            node = self._nodes[node_id]
            try:
                staged = self.executor.stage(node)
                result = self.executor.execute(node, staged)
                expansion = self.executor.collect(node, staged, result)
                with self._lock:
                    self._complete(node_id, expansion)
            except BaseException as exc:  # noqa: BLE001 — classified below
                with self._lock:
                    self._node_failed_locked(node_id, exc)
            batch += 1
            node_id = None
            if batch < self.TINY_BATCH_MAX:
                with self._lock:
                    if self._failure is None and self._ready:
                        top_id = self._ready[0][2]
                        if self.executor.is_tiny(self._nodes[top_id]):
                            node_id = self._pop()
                            self._set_state(node_id, NODE_RUNNING)
        with self._lock:
            self.stage_timings["tiny_nodes"] += batch
            self.stage_timings["tiny_batches"] += 1
            self.stage_timings["exec_s"] += time.perf_counter() - started
        await asyncio.sleep(0)

    async def _pipeline(self, node_id: str, loop, blocking, exec_pool) -> None:
        """One heavy node's three-stage lifecycle, then completion bookkeeping."""
        node = self._nodes[node_id]
        expansion: Optional[Expansion] = None
        failure: Optional[BaseException] = None
        stage_s = exec_s = collect_s = 0.0
        try:
            t0 = time.perf_counter()
            async with self._stage_sem:
                staged = await loop.run_in_executor(
                    blocking, self.executor.stage, node)
            t1 = time.perf_counter()
            result = await loop.run_in_executor(
                exec_pool, self.executor.execute, node, staged)
            t2 = time.perf_counter()
            async with self._collect_sem:
                expansion = await loop.run_in_executor(
                    blocking, self.executor.collect, node, staged, result)
            t3 = time.perf_counter()
            stage_s, exec_s, collect_s = t1 - t0, t2 - t1, t3 - t2
        except BaseException as exc:  # noqa: BLE001 — re-raised by run()
            failure = exc
        with self._lock:
            self._inflight -= 1
            self.stage_timings["stage_s"] += stage_s
            self.stage_timings["exec_s"] += exec_s
            self.stage_timings["collect_s"] += collect_s
            self.stage_timings["nodes"] += 1
            try:
                if failure is not None:
                    self._node_failed_locked(node_id, failure)
                elif self._failure is None:
                    self._complete(node_id, expansion)
            except BaseException as exc:  # noqa: BLE001 — bookkeeping fault
                # A bug in completion bookkeeping must surface as the run's
                # failure — swallowing it would park the dispatcher forever.
                if self._failure is None:
                    self._failure = exc
        # Leave the task set before signalling the dispatcher, so its
        # "all drained?" check never sees this finished task as live.
        self._task_set.discard(asyncio.current_task())
        self._admission.release()
        self._wake.set()
