"""DAG scheduling benchmarks: the shared-pool scheduler vs the seed behaviour.

The seed engine re-scanned every pending step under a lock (O(V²) polling) and
ran each scattered step on its own nested ``ThreadPoolExecutor``, so scatter
inside parallel steps multiplied threads without bound and scatter fan-in
barriered downstream work.  The graph scheduler replaces both: one bounded
worker pool, dependency-counting wake-ups, shards as first-class nodes.

Three DAG shapes exercise what the seed could not do:

* **wide fan-out** — N independent sleeping steps.  Parallel runtime must
  approach ``ceil(N / max_workers) * t`` instead of ``N * t``.
* **deep diamonds** — a chain of diamond motifs (a → b,c → d).  The two
  middle steps of each diamond must overlap.
* **scatter × subworkflow** — the Figure-1 workload shape (scatter over a
  multi-step subworkflow) *plus* a side scatter.  The seed's nested pools
  made total threads ``max_workers²``-ish here; the scheduler must stay
  within the single global cap **while still speeding up** — that pair of
  assertions is what "beats the seed nested-pool behaviour" means once the
  nested pools no longer exist to race against.

Series land in ``BENCH_dag.json`` (figures prefixed ``DAG``; see
``conftest.pytest_terminal_summary``), uploaded by CI next to
``BENCH_expressions.json``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import api
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext

DELAY = 0.05
MAX_WORKERS = 4

FIGURE_WIDE = "DAG wide fan-out: runtime [s] vs independent steps"
FIGURE_DIAMOND = "DAG deep diamonds: runtime [s] vs diamond count"
FIGURE_NESTED = "DAG scatter x subworkflow: runtime [s] vs scatter width"

#: (figure, series, x) -> the run's job events, in the order they happened.
EVENTS = {}


def sleep_tool(tool_id: str = "") -> dict:
    """A tool that sleeps then writes a file named by its ``name`` input;
    its ``tool_id``, if given, names its jobs in the run's events."""
    return {
        **({"id": tool_id} if tool_id else {}),
        "class": "CommandLineTool",
        "baseCommand": [
            "python3", "-c",
            "import sys, time; time.sleep(float(sys.argv[1])); "
            "open(sys.argv[2], 'w').write(sys.argv[2])",
        ],
        "inputs": {
            "delay": {"type": "double", "inputBinding": {"position": 1}},
            "name": {"type": "string", "inputBinding": {"position": 2}},
            # Declared so upstream File outputs can be wired in as pure
            # ordering dependencies (the command ignores them).
            "after": {"type": "Any?"},
        },
        "outputs": {"out": {"type": "File", "outputBinding": {"glob": "$(inputs.name)"}}},
    }


def wide_fanout_workflow(count: int) -> dict:
    steps = {
        f"s{i}": {"run": sleep_tool(),
                  "in": {"delay": "delay", "name": {"default": f"wide_{i}.txt"}},
                  "out": ["out"]}
        for i in range(count)
    }
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "MultipleInputFeatureRequirement"}],
        "inputs": {"delay": "double"},
        "outputs": {"all": {"type": "Any",
                            "outputSource": [f"s{i}/out" for i in range(count)]}},
        "steps": steps,
    }


def deep_diamond_workflow(diamonds: int) -> dict:
    """``diamonds`` chained a → (b, c) → d motifs; b and c can overlap."""
    steps: dict = {}
    upstream = None
    for i in range(diamonds):
        top = {"delay": "delay", "name": {"default": f"top_{i}.txt"}}
        if upstream:
            top["after"] = upstream
        steps[f"top_{i}"] = {"run": sleep_tool(), "in": top, "out": ["out"]}
        for side in ("left", "right"):
            steps[f"{side}_{i}"] = {
                "run": sleep_tool(f"{side}_{i}"),
                "in": {"delay": "delay", "name": {"default": f"{side}_{i}.txt"},
                       "after": f"top_{i}/out"},
                "out": ["out"]}
        steps[f"join_{i}"] = {
            "run": sleep_tool(),
            "in": {"delay": "delay", "name": {"default": f"join_{i}.txt"},
                   "after": {"source": [f"left_{i}/out", f"right_{i}/out"]}},
            "out": ["out"]}
        upstream = f"join_{i}/out"
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "MultipleInputFeatureRequirement"}],
        "inputs": {"delay": "double"},
        "outputs": {"final": {"type": "Any", "outputSource": upstream}},
        "steps": steps,
    }


def nested_scatter_workflow() -> dict:
    """Scatter over a two-step subworkflow plus a side scatter (Figure-1 shape)."""
    child = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "StepInputExpressionRequirement"}],
        "inputs": {"delay": "double", "name": "string"},
        "outputs": {"result": {"type": "File", "outputSource": "second/out"}},
        "steps": {
            "first": {"run": sleep_tool(),
                      "in": {"delay": "delay",
                             "name": {"source": "name", "valueFrom": "$(self)_1.txt"}},
                      "out": ["out"]},
            "second": {"run": sleep_tool(),
                       "in": {"delay": "delay", "after": "first/out",
                              "name": {"source": "name", "valueFrom": "$(self)_2.txt"}},
                       "out": ["out"]},
        },
    }
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"},
                         {"class": "SubworkflowFeatureRequirement"},
                         {"class": "StepInputExpressionRequirement"}],
        "inputs": {"delay": "double", "names": "string[]", "side_names": "string[]"},
        "outputs": {"all": {"type": "Any", "outputSource": "pipe/result"},
                    "side": {"type": "Any", "outputSource": "extra/out"}},
        "steps": {
            "pipe": {"run": child, "scatter": "name",
                     "in": {"delay": "delay", "name": "names"}, "out": ["result"]},
            "extra": {"run": sleep_tool(), "scatter": "name",
                      "in": {"delay": "delay", "name": "side_names"},
                      "out": ["out"]},
        },
    }


def run_engine(engine: str, doc: dict, job_order: dict, workdir, **options):
    workdir.mkdir(parents=True, exist_ok=True)
    if engine in ("reference", "toil"):
        options.setdefault("runtime_context", RuntimeContext(basedir=str(workdir)))
        options.setdefault("max_workers", MAX_WORKERS)
    if engine == "toil":
        options.setdefault("job_store_dir", str(workdir / "jobstore"))
    return api.run(load_document(doc), dict(job_order), engine=engine, **options)


class ThreadSampler:
    """Samples live scheduler worker threads while a workload runs."""

    PREFIXES = ("cwl-dag", "cwl-workflow", "cwl-scatter")

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            live = sum(1 for t in threading.enumerate()
                       if t.name.startswith(self.PREFIXES))
            self.peak = max(self.peak, live)
            time.sleep(0.005)

    def __enter__(self) -> "ThreadSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


WIDE_COUNTS = [4, 12]
WIDE_SERIES = {
    "reference (serial)": ("reference", {"parallel": False}),
    "reference (parallel)": ("reference", {"parallel": True}),
    "toil-like (parallel)": ("toil", {}),
    "parsl-workflow": ("parsl-workflow", {}),
}


@pytest.mark.parametrize("count", WIDE_COUNTS)
@pytest.mark.parametrize("series", list(WIDE_SERIES))
def test_dag_wide_fanout(benchmark, series, count, tmp_path, series_recorder,
                         monkeypatch):
    engine, options = WIDE_SERIES[series]
    doc = wide_fanout_workflow(count)
    workdir = tmp_path / series.replace(" ", "_")
    if engine == "parsl-workflow":
        workdir.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(workdir)
        import repro

        options = dict(options,
                       config=repro.thread_config(max_threads=MAX_WORKERS,
                                                  run_dir=str(workdir / "runinfo")))

    def run():
        result = run_engine(engine, doc, {"delay": DELAY}, workdir, **options)
        assert len(result.outputs["all"]) == count
        EVENTS[FIGURE_WIDE, series, count] = result.events

    benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record(FIGURE_WIDE, series, count, benchmark.stats.stats.mean)


# Three sizes per series so BENCH_dag.json records growth curves, not single
# points (the scatter×subworkflow series below likewise).
DIAMOND_COUNTS = [1, 2, 3]


@pytest.mark.parametrize("diamonds", DIAMOND_COUNTS)
@pytest.mark.parametrize("series", ["reference (serial)", "reference (parallel)"])
def test_dag_deep_diamonds(benchmark, series, diamonds, tmp_path, series_recorder):
    engine, options = WIDE_SERIES[series]
    doc = deep_diamond_workflow(diamonds)

    def run():
        result = run_engine(engine, doc, {"delay": DELAY},
                            tmp_path / series.replace(" ", "_"), **options)
        assert result.outputs["final"] is not None
        EVENTS[FIGURE_DIAMOND, series, diamonds] = result.events

    benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record(FIGURE_DIAMOND, series, diamonds, benchmark.stats.stats.mean)


NESTED_WIDTHS = [2, 4, 6]


@pytest.mark.parametrize("width", NESTED_WIDTHS)
@pytest.mark.parametrize("series", ["reference (serial)", "reference (parallel)"])
def test_dag_scatter_in_subworkflow(benchmark, series, width, tmp_path,
                                    series_recorder):
    """The seed's worst case: scatter shards inside a parallel workflow.  The
    shared pool must respect the global thread cap *and* still parallelise."""
    engine, options = WIDE_SERIES[series]
    doc = nested_scatter_workflow()
    names = [f"img{i}" for i in range(width)]
    side_names = [f"side{i}.txt" for i in range(width)]

    def run():
        with ThreadSampler() as sampler:
            result = run_engine(engine, doc,
                                {"delay": DELAY, "names": names,
                                 "side_names": side_names},
                                tmp_path / series.replace(" ", "_"), **options)
        assert len(result.outputs["all"]) == width
        assert sampler.peak <= MAX_WORKERS, \
            f"live scheduler threads ({sampler.peak}) exceeded max_workers ({MAX_WORKERS})"
        EVENTS[FIGURE_NESTED, series, width] = result.events

    benchmark.pedantic(run, rounds=1, iterations=1)
    series_recorder.record(FIGURE_NESTED, series, width, benchmark.stats.stats.mean)


# ------------------------------------------------------------- shape checks
#
# The timings above are recorded series.  The shapes are asserted on the
# order of each run's job events, which no host's speed changes.

def recorded(figure, series, x):
    events = EVENTS.get((figure, series, x))
    if events is None:
        pytest.skip(f"{figure} / {series} was not measured")
    return events


def peak_running(events) -> int:
    """The most jobs running at once: started and not yet ended, counted
    along the order of the run's start and end events."""
    running = peak = 0
    for event in events:
        running += {"start": 1, "end": -1}.get(event.kind, 0)
        peak = max(peak, running)
    return peak


def test_dag_shape_wide_fanout_parallel_runs_jobs_at_once():
    """With N independent steps the shared pool runs several at once; the
    serial mode (the seed's) runs one at a time."""
    largest = WIDE_COUNTS[-1]
    assert peak_running(recorded(FIGURE_WIDE, "reference (parallel)", largest)) >= 2
    assert peak_running(recorded(FIGURE_WIDE, "reference (serial)", largest)) == 1


def test_dag_shape_diamonds_overlap():
    """Each diamond's two middle steps overlap under the scheduler: the
    second arm starts before the first one ends."""
    diamonds = DIAMOND_COUNTS[-1]
    events = recorded(FIGURE_DIAMOND, "reference (parallel)", diamonds)
    for index in range(diamonds):
        arms = [event.kind for event in events
                if event.job in (f"left_{index}", f"right_{index}")]
        assert arms[:2] == ["start", "start"], (index, arms)


def test_dag_shape_nested_scatter_runs_jobs_at_once_within_thread_cap():
    """Scatter-inside-subworkflow parallelises within one bounded pool: jobs
    run at once without the seed's nested-pool thread multiplication (the
    cap itself is asserted inside the benchmark run)."""
    width = NESTED_WIDTHS[-1]
    assert peak_running(recorded(FIGURE_NESTED, "reference (parallel)", width)) >= 2
