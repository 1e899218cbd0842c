"""Scheduler robustness: hang guard, expansion bugs, partial execution.

The property under test: ``GraphScheduler.run()`` **always returns or
raises** — a worker that throws inside completion bookkeeping, a dynamic
expansion with malformed ids, or a dependency left unmet must surface as a
``WorkflowException`` with a diagnosis, never as an event-loop that waits
forever.
"""

from __future__ import annotations

import pytest

from repro.cwl.errors import WorkflowException
from repro.cwl.graph import GraphNode, WorkflowGraph
from repro.cwl.scheduler import (
    NODE_DONE,
    NODE_FAILED,
    NODE_SKIPPED,
    Expansion,
    GraphScheduler,
)

RUN_TIMEOUT_S = 30  # generous; the hang bug this guards against waits forever


def make_graph(edges, extra_nodes=()):
    """A WorkflowGraph from ``pred -> succ`` pairs of synthetic step nodes."""
    graph = WorkflowGraph()
    node_ids = list(dict.fromkeys(
        [n for edge in edges for n in edge] + list(extra_nodes)))
    for node_id in node_ids:
        graph.nodes[node_id] = GraphNode(id=node_id, kind="step",
                                         step=None, workflow=None)
        graph.predecessors[node_id] = []
    for pred, succ in edges:
        graph.predecessors[succ].append(pred)
    graph._finalise()
    return graph


def run_guarded(scheduler):
    """Run the scheduler on a watchdog thread so a hang fails, not blocks."""
    import threading

    outcome = {}

    def target():
        try:
            scheduler.run()
            outcome["ok"] = True
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome["exc"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(RUN_TIMEOUT_S)
    assert not thread.is_alive(), "GraphScheduler.run() hung"
    if "exc" in outcome:
        raise outcome["exc"]


# ----------------------------------------------------------------- hang guard

@pytest.mark.parametrize("parallel", [False, True])
def test_bad_expansion_fails_the_run_instead_of_hanging(parallel):
    """A worker raising inside ``_apply_expansion`` must not block run().

    Returning an expansion that reuses an existing node id makes the
    *completion bookkeeping* (not the node body) raise; before the hang guard
    this left ``_pending > 0`` with no workers in flight and the parallel run
    loop waiting on its condition variable forever.
    """
    graph = make_graph([("a", "b")])

    def execute(node):
        if node.id == "a":
            return Expansion(nodes=[GraphNode(id="b", kind="step",
                                              step=None, workflow=None)])
        return None

    scheduler = GraphScheduler(graph, execute, parallel=parallel, max_workers=2)
    with pytest.raises(WorkflowException, match="duplicate dynamic node id"):
        run_guarded(scheduler)


@pytest.mark.parametrize("parallel", [False, True])
def test_drain_check_reports_stalled_nodes_with_diagnosis(parallel):
    """An expansion whose nodes can never run is reported, not awaited.

    The stall report must name the stuck node, its indegree and the unmet
    dependency so the failure is debuggable from the message alone.
    """
    graph = make_graph([("a", "b")])

    def execute(node):
        if node.id == "a":
            # Two dynamic nodes in a runtime dependency cycle: neither can
            # ever become ready, so the run would otherwise wait forever.
            shards = [GraphNode(id=f"a/shard-{i}", kind="step",
                                step=None, workflow=None) for i in range(2)]
            return Expansion(nodes=shards,
                             preds={"a/shard-0": ["a/shard-1"],
                                    "a/shard-1": ["a/shard-0"]})
        return None

    scheduler = GraphScheduler(graph, execute, parallel=parallel, max_workers=2)
    with pytest.raises(WorkflowException) as excinfo:
        run_guarded(scheduler)
    message = str(excinfo.value)
    assert "workflow stalled" in message
    assert "a/shard-0" in message          # the stalled node id
    assert "indegree" in message           # its dependency count
    assert "unmet: a/shard-1" in message   # the unmet predecessor


# ------------------------------------------------------------- on_error modes

def diamond():
    """a -> (left, right) -> sink, plus an independent island."""
    return make_graph([("a", "left"), ("a", "right"),
                       ("left", "sink"), ("right", "sink")],
                      extra_nodes=["island"])


@pytest.mark.parametrize("parallel", [False, True])
def test_on_error_stop_raises_first_failure(parallel):
    graph = diamond()

    def execute(node):
        if node.id == "left":
            raise WorkflowException("left exploded")
        return None

    scheduler = GraphScheduler(graph, execute, parallel=parallel, max_workers=2)
    with pytest.raises(WorkflowException, match="left exploded"):
        run_guarded(scheduler)
    assert scheduler.states["left"] == NODE_FAILED


@pytest.mark.parametrize("parallel", [False, True])
def test_on_error_continue_poisons_only_transitive_successors(parallel):
    graph = diamond()
    ran = []

    def execute(node):
        ran.append(node.id)
        if node.id == "left":
            raise WorkflowException("left exploded")
        return None

    scheduler = GraphScheduler(graph, execute, parallel=parallel,
                               max_workers=2, on_error="continue")
    run_guarded(scheduler)  # does not raise
    assert set(scheduler.failures) == {"left"}
    assert scheduler.states["left"] == NODE_FAILED
    assert scheduler.states["sink"] == NODE_SKIPPED
    assert scheduler.states["right"] == NODE_DONE
    assert scheduler.states["island"] == NODE_DONE
    assert "sink" not in ran  # poisoned nodes never execute


def test_on_error_validated():
    with pytest.raises(ValueError, match="on_error"):
        GraphScheduler(make_graph([("a", "b")]), lambda node: None,
                       on_error="retry")


def test_journal_records_every_transition(tmp_path):
    from repro.cwl.journal import RunJournal, node_states, read_journal

    journal = RunJournal(str(tmp_path / "journal.jsonl"))
    graph = diamond()

    def execute(node):
        if node.id == "left":
            raise WorkflowException("left exploded")
        return None

    scheduler = GraphScheduler(graph, execute, on_error="continue",
                               journal=journal)
    run_guarded(scheduler)
    journal.close()
    states = node_states(read_journal(str(tmp_path)))
    assert states == {"a": "done", "left": "failed", "right": "done",
                      "sink": "skipped", "island": "done"}


# ------------------------------------------------------------ parked nodes

def finished_later(value=None, delay_s=0.02):
    """A future another thread completes after ``delay_s``."""
    import concurrent.futures
    import threading

    future = concurrent.futures.Future()
    threading.Timer(delay_s, future.set_result, (value,)).start()
    return future


def test_a_parked_node_resumes_on_the_dispatching_thread():
    """A node that yields a future parks on it; the future's done-callback
    (on the timer's thread) only queues it, and the dispatch loop resumes
    it, so every segment of every node runs on one thread."""
    import threading

    threads = {}

    def execute(node):
        threads[node.id, "before"] = threading.current_thread()
        yield finished_later()
        threads[node.id, "after"] = threading.current_thread()

    scheduler = GraphScheduler(diamond(), execute, parallel=True, max_workers=2)
    run_guarded(scheduler)
    assert set(scheduler.states.values()) == {NODE_DONE}
    assert len(threads) == 10 and len(set(threads.values())) == 1
    assert scheduler._pool is None  # no node went to the pool


def test_after_a_failure_every_parked_node_ends_and_releases_nothing():
    """Under ``on_error="stop"`` the run raises only once the nodes parked
    when a sibling failed have run to their end, and those release no
    successor."""
    ended, ran = [], []

    def execute(node):
        ran.append(node.id)
        future = finished_later(delay_s=0.3 if node.id == "right" else 0.01)
        yield future
        if node.id == "left":
            raise WorkflowException("left exploded")
        ended.append(node.id)

    scheduler = GraphScheduler(diamond(), execute, parallel=True, max_workers=4)
    with pytest.raises(WorkflowException, match="left exploded"):
        run_guarded(scheduler)
    assert "right" in ended and "sink" not in ran
    assert scheduler.states["left"] == NODE_FAILED


def test_finish_waits_on_a_yielded_future():
    from repro.utils.continuation import finish

    def continuation():
        future = finished_later("done")
        yield future
        return future.result()

    assert finish(continuation()) == "done"
