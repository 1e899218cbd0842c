"""Where a node runs: inline on the dispatching thread, or on the pool.

A node's execution is a continuation that yields at its first blocking point
(a spawn, a batch-system issue, a retry backoff).  The scheduler runs the
inline segment on the thread that called ``run()`` and hands only the rest
to its pool.  So a job-cache hit, which blocks nowhere, never leaves the
calling thread.  Everything here is a count or a thread identity, not a clock.
"""

from __future__ import annotations

import concurrent.futures as cf
import glob
import os
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import api
from repro.api.events import ExecutionHooks
from repro.cwl.faults import FaultPlan, get_fault_profile
from repro.cwl.graph import GraphNode, WorkflowGraph
from repro.cwl.job import CommandLineJob
from repro.cwl.jobcache import INLINE_HASH_BYTES, JobCache, file_fingerprint, get_job_cache
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.cwl.scheduler import NODE_DONE, NODE_FAILED, NODE_SKIPPED, GraphScheduler

RUNNERS = ("reference", "toil")


def echo_step(source: str) -> dict:
    return {"run": {"class": "CommandLineTool", "baseCommand": "echo",
                    "inputs": {"text": {"type": "string", "inputBinding": {"position": 1}}},
                    "outputs": {"out": "stdout"}, "stdout": "echo.txt"},
            "in": {"text": source}, "out": ["out"]}


def cat_step(*sources: str) -> dict:
    return {"run": {"class": "CommandLineTool", "baseCommand": "cat",
                    "inputs": {f"f{i}": {"type": "File", "inputBinding": {"position": i + 1}}
                               for i in range(len(sources))},
                    "outputs": {"out": "stdout"}, "stdout": "cat.txt"},
            "in": {f"f{i}": source for i, source in enumerate(sources)}, "out": ["out"]}


def two_branch_workflow() -> dict:
    """Branch ``a``: echo → cat → cat (3 jobs, from input ``a``); branch ``b``:
    echo → cat (2 jobs, from ``b``); then a scatter over ``words`` (2 jobs)."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"a": "string", "b": "string", "words": "string[]"},
        "outputs": {"a_out": {"type": "File", "outputSource": "a3/out"},
                    "b_out": {"type": "File", "outputSource": "b2/out"},
                    "each": {"type": "File[]", "outputSource": "each/out"}},
        "steps": {
            "a1": echo_step("a"), "a2": cat_step("a1/out"), "a3": cat_step("a1/out", "a2/out"),
            "b1": echo_step("b"), "b2": cat_step("b1/out"),
            "each": dict(echo_step("words"), scatter="text"),
        },
    }


ORDER = {"a": "alpha", "b": "beta", "words": ["x", "y"]}
JOBS = 7


def session_for(engine: str, workdir, store, **options) -> api.Session:
    workdir.mkdir(parents=True, exist_ok=True)
    context = RuntimeContext(tmpdir_prefix=str(workdir / "scratch" / "cwl-tmp-"),
                             basedir=str(workdir / "jobs"))
    if engine == "toil":
        options["job_store_dir"] = str(workdir / "jobstore")
    else:
        options["parallel"] = True
    return api.Session(engine, runtime_context=context, cache_dir=str(store),
                       max_workers=2, **options)


def run(engine, workdir, store, order=ORDER, hooks=None, **options):
    with session_for(engine, workdir, store, **options) as session:
        return session.run(load_document(two_branch_workflow()), dict(order), hooks)


class PoolSubmissions:
    """Counts what the scheduler hands to its pool (nothing else's)."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        real_submit = cf.ThreadPoolExecutor.submit

        def submit(pool, fn, *args, **kwargs):
            if isinstance(getattr(fn, "__self__", None), GraphScheduler):
                self.count += 1
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(cf.ThreadPoolExecutor, "submit", submit)


def recording_hooks():
    threads = []
    record = lambda event: threads.append((event.kind, threading.get_ident()))  # noqa: E731
    return threads, ExecutionHooks(on_job_start=record, on_job_end=record)


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_fully_warm_dag_never_touches_the_pool(engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    assert run(engine, tmp_path / "cold", store).cache_stats == {"hits": 0, "misses": JOBS}

    submissions = PoolSubmissions(monkeypatch)
    threads, hooks = recording_hooks()
    warm = run(engine, tmp_path / "warm", store, hooks=hooks)

    assert warm.cache_stats == {"hits": JOBS, "misses": 0}
    assert submissions.count == 0
    assert len(threads) == 2 * JOBS
    assert {ident for _kind, ident in threads} == {threading.get_ident()}


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_half_primed_dag_submits_exactly_its_misses(engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    run(engine, tmp_path / "cold", store)

    submissions = PoolSubmissions(monkeypatch)
    half = run(engine, tmp_path / "half", store, order=dict(ORDER, b="gamma"))

    assert half.cache_stats == {"hits": 5, "misses": 2}  # branch b re-runs
    assert submissions.count == 2


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_warm_retry_faults_before_its_probe_and_backs_off_on_the_pool(
        engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    run(engine, tmp_path / "cold", store)

    caller = threading.get_ident()
    trace, slept = [], []
    real_apply, real_probe = FaultPlan.apply, CommandLineJob.cached_result

    def apply(plan, job, attempt):
        trace.append(("fault", job, attempt, threading.get_ident()))
        real_apply(plan, job, attempt)

    def cached_result(job, probe):
        trace.append(("probe", job.tool.id, None, threading.get_ident()))
        return real_probe(job, probe)

    monkeypatch.setattr(FaultPlan, "apply", apply)
    monkeypatch.setattr(CommandLineJob, "cached_result", cached_result)
    monkeypatch.setattr("repro.cwl.retry.time", SimpleNamespace(
        sleep=lambda delay: slept.append(threading.get_ident())))
    submissions = PoolSubmissions(monkeypatch)
    profile = get_fault_profile("transient-all")
    warm = run(engine, tmp_path / "warm", store,
               fault_plan=profile.make_plan(), retry_policy=profile.policy)

    assert warm.cache_stats == {"hits": JOBS, "misses": 0}
    assert warm.retries() == JOBS
    # Attempt 1 of every job fails on the calling thread before it probes
    # (no probe runs there at all); after the backoff, on the pool, attempt 2
    # probes and hits.
    on_caller = [(kind, attempt) for kind, _job, attempt, thread in trace if thread == caller]
    on_pool = sorted((kind, attempt or 0) for kind, _job, attempt, thread in trace
                     if thread != caller)
    assert on_caller == [("fault", 1)] * JOBS
    assert on_pool == [("fault", 2)] * JOBS + [("probe", 0)] * JOBS
    assert len(slept) == JOBS and caller not in slept
    assert submissions.count == JOBS


# ------------------------------------------- probes that would read or copy bodies

@pytest.mark.parametrize("engine", RUNNERS)
def test_a_store_on_another_device_probes_on_the_pool(engine, tmp_path, monkeypatch):
    """A hit from a store on another device than the job directories copies
    its files, so every attempt yields before probing: all hits, all pooled."""
    store = tmp_path / "store"
    run(engine, tmp_path / "cold", store)

    probed = []
    real_probe = CommandLineJob.cached_result

    def cached_result(job, probe):
        probed.append(threading.get_ident())
        return real_probe(job, probe)

    monkeypatch.setattr(get_job_cache(str(store)), "device", -1)
    monkeypatch.setattr(CommandLineJob, "cached_result", cached_result)
    submissions = PoolSubmissions(monkeypatch)
    warm = run(engine, tmp_path / "warm", store)

    assert warm.cache_stats == {"hits": JOBS, "misses": 0}
    assert submissions.count == JOBS
    assert len(probed) == JOBS and threading.get_ident() not in probed


def test_a_probe_stays_inline_only_while_it_touches_metadata(tmp_path, monkeypatch):
    """Unhashed input past ``INLINE_HASH_BYTES``, or a hit staged into a
    store on another device, sends the probe to the pool."""
    monkeypatch.setattr("repro.cwl.jobcache._FILE_HASH_MEMO", {})
    tool = load_document(cat_step("x")["run"])
    big = tmp_path / "big.bin"
    big.write_bytes(b"x" * (INLINE_HASH_BYTES + 1))
    small = tmp_path / "small.txt"
    small.write_bytes(b"x" * INLINE_HASH_BYTES)
    context = RuntimeContext(cache_dir=str(tmp_path / "store"), basedir=str(tmp_path))
    device = os.stat(tmp_path).st_dev

    def job(path):
        return CommandLineJob(tool=tool, runtime_context=context,
                              job_order={"f0": {"class": "File", "path": str(path)}})

    assert job(small).probe_stays_inline()
    assert job(small).probe_stays_inline(device)
    assert not job(small).probe_stays_inline(device, -1)
    assert not job(big).probe_stays_inline()
    file_fingerprint(str(big))  # hashed once: keying it reads nothing
    assert job(big).probe_stays_inline()
    assert CommandLineJob(tool=tool, runtime_context=RuntimeContext(job_cache=False),
                          job_order={"f0": {"class": "File", "path": str(big)}}
                          ).probe_stays_inline(-1)


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_hit_whose_bodies_are_unhashed_and_large_is_checked_on_the_pool(
        engine, tmp_path, monkeypatch):
    """A fresh process has hashed none of a hit's bodies; past
    ``INLINE_HASH_BYTES`` the probe keys on the calling thread, then yields
    and checks the bodies on the pool: keyed once, one submission."""
    seq = {"cwlVersion": "v1.2", "class": "Workflow", "inputs": {"n": "int"},
           "outputs": {"out": {"type": "File", "outputSource": "s/out"}},
           "steps": {"s": {"run": {"class": "CommandLineTool", "baseCommand": "seq",
                                   "inputs": {"n": {"type": "int",
                                                    "inputBinding": {"position": 1}}},
                                   "outputs": {"out": "stdout"}, "stdout": "seq.txt"},
                           "in": {"n": "n"}, "out": ["out"]}}}
    order = {"n": 60000}  # 348,894 bytes of stdout
    store = tmp_path / "store"

    def run_seq(workdir):
        with session_for(engine, workdir, store) as session:
            return session.run(load_document(seq), dict(order))

    run_seq(tmp_path / "cold")
    monkeypatch.setattr("repro.cwl.jobcache._FILE_HASH_MEMO", {})
    checks, keys = [], []
    real_checked, real_key = JobCache.checked, RuntimeContext.cache_key

    def checked(cache, entry):
        checks.append(threading.get_ident())
        return real_checked(cache, entry)

    def cache_key(context, tool, job_order, *identities):
        keys.append(threading.get_ident())
        return real_key(context, tool, job_order, *identities)

    monkeypatch.setattr(JobCache, "checked", checked)
    monkeypatch.setattr(RuntimeContext, "cache_key", cache_key)
    submissions = PoolSubmissions(monkeypatch)
    warm = run_seq(tmp_path / "warm")

    assert warm.cache_stats == {"hits": 1, "misses": 0}
    assert os.path.getsize(warm.outputs["out"]["path"]) > INLINE_HASH_BYTES
    caller = threading.get_ident()
    assert keys == [caller]
    assert len(checks) == 1 and checks[0] != caller
    assert submissions.count == 1


def test_an_entrys_unhashed_body_bytes_go_to_zero_once_checked(tmp_path, monkeypatch):
    """The fact the probe yields on: what checking an entry would read."""
    cache = JobCache(str(tmp_path / "store"))
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "a.txt").write_bytes(b"x" * 100)
    cache.store_files("k", str(outdir), [str(outdir / "a.txt")])

    monkeypatch.setattr("repro.cwl.jobcache._FILE_HASH_MEMO", {})  # a fresh process
    entry = cache.manifest("k")
    assert cache.unhashed_body_bytes(entry) == 100
    assert cache.checked(entry) is entry
    assert cache.unhashed_body_bytes(entry) == 0


# ------------------------------------------------ a job built directly probes itself

def spy_cache_keys(monkeypatch) -> list:
    """The keys ``RuntimeContext.cache_key`` makes from now on, in order."""
    keys = []
    real_key = RuntimeContext.cache_key

    def cache_key(context, tool, job_order, *identities):
        keys.append(real_key(context, tool, job_order, *identities))
        return keys[-1]

    monkeypatch.setattr(RuntimeContext, "cache_key", cache_key)
    return keys


def job_on(store, basedir, text="hello"):
    tool = load_document(echo_step("x")["run"])
    return CommandLineJob(tool=tool, job_order={"text": text},
                          runtime_context=RuntimeContext(cache_dir=str(store),
                                                         basedir=str(basedir)))


def test_execute_on_a_cold_store_keys_once_and_counts_one_miss(tmp_path, monkeypatch):
    store = tmp_path / "store"
    keys = spy_cache_keys(monkeypatch)
    result = job_on(store, tmp_path / "cold").execute()

    assert not result.cache_hit
    assert Path(result.outputs["out"]["path"]).read_text() == "hello\n"
    assert keys == [result.cache_key] and result.cache_key is not None


def test_execute_on_a_warm_store_restores_without_spawning(tmp_path, monkeypatch):
    store = tmp_path / "store"
    cold = job_on(store, tmp_path / "cold").execute()
    keys = spy_cache_keys(monkeypatch)

    def popen(*args, **kwargs):
        raise AssertionError("a hit spawned a process")

    monkeypatch.setattr("repro.cwl.job.subprocess.Popen", popen)
    result = job_on(store, tmp_path / "warm").execute()

    assert result.cache_hit
    assert Path(result.outputs["out"]["path"]).read_text() == "hello\n"
    assert keys == [cold.cache_key] == [result.cache_key]


# ------------------------------------------------------- failures and interrupts

def test_a_pool_that_refuses_a_node_fails_the_run_under_continue(monkeypatch):
    """A hand-off the pool cannot take is the run's failure, not a node's:
    ``run()`` raises it instead of waiting, with its one worker slot taken,
    on a segment nothing runs."""
    graph = make_graph([("a", "b")], extra_nodes=["island"])

    def execute(node):
        yield

    def submit(pool, fn, *args, **kwargs):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(cf.ThreadPoolExecutor, "submit", submit)
    scheduler = GraphScheduler(graph, execute, parallel=True, max_workers=1,
                               on_error="continue")
    outcome = []

    def target():
        try:
            scheduler.run()
        except RuntimeError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(10)
    assert not runner.is_alive()
    assert [str(exc) for exc in outcome] == ["can't start new thread"]
    assert scheduler.states["a"] == NODE_FAILED and scheduler._inflight == 0
    assert "b" not in scheduler.failures and scheduler.states["b"] != NODE_SKIPPED


def make_graph(edges, extra_nodes=()):
    graph = WorkflowGraph()
    for node_id in dict.fromkeys([n for edge in edges for n in edge] + list(extra_nodes)):
        graph.nodes[node_id] = GraphNode(id=node_id, kind="step", step=None, workflow=None)
        graph.predecessors[node_id] = []
    for pred, succ in edges:
        graph.predecessors[succ].append(pred)
    graph._finalise()
    return graph


def test_an_inline_failure_under_continue_skips_successors_only():
    """``left`` fails in its inline segment, the others yield to the pool."""
    graph = make_graph([("a", "left"), ("a", "right"), ("left", "sink"),
                        ("right", "sink")], extra_nodes=["island"])
    ran, pooled = [], []
    caller = threading.get_ident()

    def execute(node):
        ran.append(node.id)
        if node.id == "left":
            raise RuntimeError("left failed inline")
        yield
        pooled.append(threading.get_ident() != caller)

    scheduler = GraphScheduler(graph, execute, parallel=True, max_workers=2,
                               on_error="continue")
    scheduler.run()
    assert set(scheduler.failures) == {"left"}
    assert scheduler.states == {"a": NODE_DONE, "left": NODE_FAILED, "right": NODE_DONE,
                                "sink": NODE_SKIPPED, "island": NODE_DONE}
    assert "sink" not in ran
    assert pooled == [True, True, True]


@pytest.mark.parametrize("parallel", [False, True])
def test_an_inline_interrupt_aborts_the_run_even_under_continue(parallel):
    graph = make_graph([("a", "b")], extra_nodes=["island"])
    ran = []

    def execute(node):
        ran.append(node.id)
        if node.id == "a":
            raise KeyboardInterrupt()
        return None
        yield  # a continuation that never blocks

    scheduler = GraphScheduler(graph, execute, parallel=parallel, on_error="continue")
    with pytest.raises(KeyboardInterrupt):
        scheduler.run()
    assert scheduler.states["a"] == NODE_FAILED and "b" not in ran


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_warm_step_failing_inline_under_continue_skips_its_branch_only(
        engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    run(engine, tmp_path / "cold", store)

    real_probe = CommandLineJob.cached_result
    probed = []

    def cached_result(job, probe):
        probed.append(threading.get_ident())
        if job.job_order.get("text") == "alpha":
            raise OSError("manifest unreadable")
        return real_probe(job, probe)

    monkeypatch.setattr(CommandLineJob, "cached_result", cached_result)
    submissions = PoolSubmissions(monkeypatch)
    result = run(engine, tmp_path / "warm", store, on_error="continue")

    assert result.status == "permanentFail" and list(result.failures) == ["a1"]
    assert {node: result.node_states[node] for node in ("a1", "a2", "a3", "b1", "b2")} \
        == {"a1": NODE_FAILED, "a2": NODE_SKIPPED, "a3": NODE_SKIPPED,
            "b1": NODE_DONE, "b2": NODE_DONE}
    assert result.outputs["b_out"] is not None and len(result.outputs["each"]) == 2
    assert probed == [threading.get_ident()] * 5 and submissions.count == 0


@pytest.mark.parametrize("engine", RUNNERS)
def test_an_interrupt_during_an_inline_hit_leaves_no_scratch_and_no_thread(
        engine, tmp_path, monkeypatch):
    store = tmp_path / "store"
    run(engine, tmp_path / "cold", store)

    restores = []
    real_restore = JobCache.restore

    def restore(cache, entry, outdir):
        restores.append(threading.get_ident())
        if len(restores) == 3:
            raise KeyboardInterrupt()
        return real_restore(cache, entry, outdir)

    monkeypatch.setattr(JobCache, "restore", restore)
    with pytest.raises(KeyboardInterrupt):
        run(engine, tmp_path / "warm", store)

    assert restores == [threading.get_ident()] * 3
    assert glob.glob(os.path.join(str(tmp_path / "warm" / "scratch"), "cwl-tmp-*")) == []
    assert not [t for t in threading.enumerate() if t.name.startswith("cwl-dag")]


def test_inline_and_pooled_nodes_interleave_safely_under_stress():
    """Every third node yields to an 8-thread pool (more threads than cores),
    with a tiny switch interval: each node runs once, after all of its
    predecessors finished, and the run drains."""
    import random
    import sys

    rng = random.Random(33)
    edges = [(f"n{rng.randrange(i)}", f"n{i}") for i in range(1, 300) for _ in range(2)]
    graph = make_graph(edges)
    preds = {node: {p for p, s in edges if s == node} for node in graph.nodes}
    lock, done, violations, ran = threading.Lock(), set(), [], []

    def execute(node):
        with lock:
            ran.append(node.id)
            if not preds[node.id] <= done:
                violations.append(node.id)
        if int(node.id[1:]) % 3 == 0:
            yield
        with lock:
            done.add(node.id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scheduler = GraphScheduler(graph, execute, parallel=True, max_workers=8)
        runner = threading.Thread(target=scheduler.run, daemon=True)
        runner.start()
        runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(ran) == sorted(graph.nodes) and violations == []
    assert set(scheduler.states.values()) == {NODE_DONE}
