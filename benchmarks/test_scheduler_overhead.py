"""Scheduler-core overhead: thread-pool vs asyncio pipelined dispatch.

Three figures, all prefixed ``SCHED`` (written to ``BENCH_sched.json``):

* ``SCHED per-node overhead`` — pure dispatch cost per node (µs) on
  layered DAGs of 100 / 1,000 / 10,000 nodes whose bodies are no-ops.
  This models the cache-warm replay case: every job is a cache hit, so
  scheduler bookkeeping *is* the runtime.  The pipelined core coalesces
  these tiny jobs into batches instead of paying a thread-pool round-trip
  per node: it hands no node to a pool, the thread-pool core hands off
  every one.
* ``SCHED io-heavy pipelining`` — wall time on a DAG whose node lifecycle
  is I/O-bound (sleeps in stage / exec / collect).  Both cores get the
  same execution concurrency (8 in-flight jobs); the pipelined core
  additionally overlaps staging and collection of *different* jobs with
  execution: a node's stage starts while another node executes.

The timings are recorded series; no assertion compares two of them.
* ``SCHED event emission`` — per-event cost (µs) of the
  :class:`~repro.api.events.EventRecorder` hot path with and without user
  hooks: without hooks the recorder appends raw tuples and defers
  ``JobEvent`` construction until ``.events`` is read.
"""

from __future__ import annotations

import concurrent.futures as cf
import time

import pytest

from repro.cwl.graph import GraphNode, WorkflowGraph
from repro.cwl.scheduler import GraphScheduler, PipelineScheduler
from repro.testing.generator import layered_dag_structure

PER_NODE_SIZES = (100, 1_000, 10_000)


def build_layered_graph(nodes: int, *, seed: int = 7) -> WorkflowGraph:
    """A synthetic WorkflowGraph with the deterministic layered-DAG shape."""
    graph = WorkflowGraph()
    structure = layered_dag_structure(nodes, seed=seed)
    for name, _deps in structure:
        graph.nodes[name] = GraphNode(id=name, kind="step", step=None,
                                      workflow=None)
        graph.predecessors[name] = []
    for name, deps in structure:
        graph.predecessors[name].extend(deps)
    graph._finalise()
    return graph


class _TinyNoopExecutor:
    """All-tiny executor: models a fully cache-warm replay (no real work)."""

    def is_tiny(self, node) -> bool:
        return True

    def stage(self, node):
        return None

    def execute(self, node, staged):
        return None

    def collect(self, node, staged, result):
        return None


class _SleepStageExecutor:
    """I/O-bound lifecycle: every stage blocks, none burns CPU.  The start
    of each stage and the start and end of each exec are appended to
    :attr:`events` in the order they happen."""

    def __init__(self, stage_s: float, exec_s: float, collect_s: float) -> None:
        self.stage_s = stage_s
        self.exec_s = exec_s
        self.collect_s = collect_s
        self.events = []

    def is_tiny(self, node) -> bool:
        return False

    def stage(self, node):
        self.events.append(("stage", node.id))
        time.sleep(self.stage_s)
        return node.id

    def execute(self, node, staged):
        self.events.append(("exec", node.id))
        time.sleep(self.exec_s)
        self.events.append(("exec end", node.id))
        return staged

    def collect(self, node, staged, result):
        time.sleep(self.collect_s)
        return None


# ------------------------------------------------------------ per-node cost


class _PoolHandOffs:
    """Counts the callables handed to any thread pool."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        real_submit = cf.ThreadPoolExecutor.submit

        def submit(pool, fn, *args, **kwargs):
            self.count += 1
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(cf.ThreadPoolExecutor, "submit", submit)


@pytest.mark.parametrize("nodes", PER_NODE_SIZES)
def test_per_node_overhead_threadpool_vs_pipeline(nodes, series_recorder, monkeypatch):
    """Per-node dispatch µs on warm replays: the thread-pool core hands every
    node of a plain callable to its pool, the pipelined core runs its tiny
    nodes inline and hands off none."""
    hand_offs = _PoolHandOffs(monkeypatch)
    graph = build_layered_graph(nodes)
    start = time.perf_counter()
    GraphScheduler(graph, lambda node: None, parallel=True, max_workers=8).run()
    threadpool_s = time.perf_counter() - start
    threadpool_hand_offs, hand_offs.count = hand_offs.count, 0

    graph = build_layered_graph(nodes)
    scheduler = PipelineScheduler(graph, executor=_TinyNoopExecutor(),
                                  max_inflight=64, max_workers=8)
    start = time.perf_counter()
    scheduler.run()
    pipeline_s = time.perf_counter() - start

    assert (threadpool_hand_offs, hand_offs.count) == (nodes, 0)
    assert scheduler.stage_timings["tiny_nodes"] == nodes
    assert scheduler.stage_timings["tiny_batches"] <= nodes

    series_recorder.record("SCHED per-node overhead", "thread-pool (us/node)",
                          nodes, threadpool_s / nodes * 1e6)
    series_recorder.record("SCHED per-node overhead", "pipelined (us/node)",
                          nodes, pipeline_s / nodes * 1e6)


# ------------------------------------------------------- I/O-heavy overlap


def build_independent_graph(nodes: int) -> WorkflowGraph:
    """``nodes`` mutually independent step nodes (a pure fan-out DAG)."""
    graph = WorkflowGraph()
    for index in range(nodes):
        name = f"n{index}"
        graph.nodes[name] = GraphNode(id=name, kind="step", step=None,
                                      workflow=None)
        graph.predecessors[name] = []
    graph._finalise()
    return graph


def test_io_heavy_pipelining_overlaps_stage_with_exec(series_recorder):
    """Overlapped stage/exec/collect vs the serial per-node lifecycle.

    64 independent nodes, each with a 4ms stage, 8ms exec (a subprocess
    wait: I/O, not CPU) and 4ms collect.  Both cores get the same
    ``max_workers=8`` worker pool.  Under the serial lifecycle a worker
    thread is pinned for the *whole* 16ms of its node, capping concurrency
    at 8 jobs; the pipelined core parks executions on the supervised exec
    lane (``max_inflight=32``) so its 8 workers spend their time only on
    staging and collection, overlapped with the waits of other jobs: some
    node's stage starts while another node executes.
    """
    stage_s, exec_s, collect_s = 0.004, 0.008, 0.004
    nodes = 64

    def serial_lifecycle(node):
        time.sleep(stage_s)
        time.sleep(exec_s)
        time.sleep(collect_s)

    start = time.perf_counter()
    GraphScheduler(build_independent_graph(nodes), serial_lifecycle,
                   parallel=True, max_workers=8).run()
    serial_s = time.perf_counter() - start

    executor = _SleepStageExecutor(stage_s, exec_s, collect_s)
    scheduler = PipelineScheduler(build_independent_graph(nodes), executor=executor,
                                  max_inflight=32, max_workers=8)
    start = time.perf_counter()
    scheduler.run()
    pipelined_s = time.perf_counter() - start

    timings = scheduler.stage_timings
    assert timings["nodes"] == nodes
    assert timings["stage_s"] > 0 and timings["exec_s"] > 0
    assert timings["collect_s"] > 0
    executing = set()
    overlapped = False
    for kind, node in executor.events:
        if kind == "exec":
            executing.add(node)
        elif kind == "exec end":
            executing.discard(node)
        elif executing - {node}:
            overlapped = True
    assert overlapped, "no node's stage started while another node executed"

    series_recorder.record("SCHED io-heavy pipelining", "serial lifecycle (s)",
                          nodes, serial_s)
    series_recorder.record("SCHED io-heavy pipelining", "pipelined (s)",
                          nodes, pipelined_s)


# ------------------------------------------------------------ event hot path


def test_event_emission_lazy_vs_hooked(series_recorder):
    """Hook-less emission builds no ``JobEvent`` until ``.events`` is read;
    hooked emission builds one per event.  The timings are recorded, not asserted."""
    from repro.api.events import EventRecorder, ExecutionHooks, JobEvent

    count = 20_000

    def emit(hooks):
        recorder = EventRecorder(hooks=hooks)
        start = time.perf_counter()
        for index in range(count):
            token = recorder.job_started(f"job{index}")
            recorder.job_finished(token, cache="hit")
        elapsed = time.perf_counter() - start
        return recorder, elapsed, sum(type(record) is JobEvent for record in recorder._records)

    lazy, lazy_s, lazy_built = emit(None)
    _, hooked_s, hooked_built = emit(ExecutionHooks(on_job_start=lambda event: None,
                                                    on_job_end=lambda event: None))
    assert (lazy_built, hooked_built) == (0, 2 * count)

    # Materialisation still yields the full, ordered event stream.
    events = lazy.events
    assert len(events) == 2 * count and all(type(event) is JobEvent for event in events)
    assert events[0].kind == "start" and events[1].kind == "end"
    assert events[1].cache == "hit" and events[1].duration_s is not None

    series_recorder.record("SCHED event emission", "no hooks (us/event)",
                          count, lazy_s / (2 * count) * 1e6)
    series_recorder.record("SCHED event emission", "hooked (us/event)",
                          count, hooked_s / (2 * count) * 1e6)
