"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module reproduces one figure (or one ablation) from the paper.
Workload sizes are scaled down from the paper's (which used up to 1,000 images
on a 3×48-core cluster) so the full suite runs on a laptop in minutes; the
*series shapes* — which runner is faster, how runtimes grow with workload size —
are what the harness reports and asserts.

A session-scoped ``series_recorder`` collects (figure, series, x, seconds)
tuples from the benchmarks and prints paper-style tables at the end of the
session, so ``pytest benchmarks/ --benchmark-only`` output contains the same
rows the figures plot.
"""

from __future__ import annotations

import collections
import json
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CWL_DIR = REPO_ROOT / "examples" / "cwl"
CONFIG_DIR = REPO_ROOT / "examples" / "configs"


@pytest.fixture(scope="session")
def cwl_dir() -> Path:
    return CWL_DIR


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


class SeriesRecorder:
    """Collects benchmark measurements keyed by (figure, series, x)."""

    def __init__(self) -> None:
        self.points = collections.defaultdict(dict)   # figure -> {(series, x): seconds}

    def record(self, figure: str, series: str, x, seconds: float) -> None:
        self.points[figure][(series, x)] = seconds

    def record_measured(self, figure: str, series: str, x, benchmark,
                        statistic: str = "mean") -> None:
        """Record ``statistic`` of what ``benchmark`` measured, if it measured.

        Under ``--benchmark-disable`` pytest-benchmark runs the function once
        without timing it and ``benchmark.stats`` is None: the point is left
        out, and the test's own assertions still run.
        """
        if benchmark.stats is not None:
            self.record(figure, series, x, getattr(benchmark.stats.stats, statistic))

    def series(self, figure: str, series: str):
        figure_points = self.points.get(figure, {})
        xs = sorted({x for (name, x) in figure_points if name == series})
        return [(x, figure_points[(series, x)]) for x in xs]

    def as_json(self) -> dict:
        """Machine-readable form: figure -> series -> sorted [x, seconds] points."""
        payload: dict = {}
        for figure, figure_points in self.points.items():
            series_map: dict = {}
            for (series, x), seconds in figure_points.items():
                series_map.setdefault(series, []).append([x, seconds])
            for series, points in series_map.items():
                try:
                    points.sort(key=lambda point: point[0])
                except TypeError:
                    points.sort(key=lambda point: str(point[0]))
            payload[figure] = series_map
        return payload

    def tables(self) -> str:
        lines = []
        for figure in sorted(self.points):
            lines.append(f"\n=== {figure} ===")
            figure_points = self.points[figure]
            series_names = sorted({name for (name, _x) in figure_points})
            xs = sorted({x for (_name, x) in figure_points})
            header = "x".ljust(10) + "".join(name.rjust(28) for name in series_names)
            lines.append(header)
            for x in xs:
                row = str(x).ljust(10)
                for name in series_names:
                    value = figure_points.get((name, x))
                    row += (f"{value:28.3f}" if value is not None else " " * 28)
                lines.append(row)
        return "\n".join(lines)


_RECORDER = SeriesRecorder()


@pytest.fixture(scope="session")
def series_recorder() -> SeriesRecorder:
    return _RECORDER


#: Where the machine-readable benchmark series land (override with the
#: BENCH_EXPRESSIONS_JSON / BENCH_DAG_JSON / BENCH_CACHE_JSON environment
#: variables).  CI uploads all three files as artifacts so the perf
#: trajectory is trackable across PRs.  Figures whose name starts with
#: ``DAG`` (the scheduler benchmarks of ``test_dag_scheduling.py``) go to
#: ``BENCH_dag.json``; figures starting with ``CACHE`` (the job-cache
#: benchmarks of ``test_job_cache.py``) go to ``BENCH_cache.json``; figures
#: starting with ``SCHED`` (the scheduler-core benchmarks of
#: ``test_scheduler_overhead.py``) go to ``BENCH_sched.json``; everything
#: else (the paper figures and ablations) goes to ``BENCH_expressions.json``.
BENCH_JSON_ENV = "BENCH_EXPRESSIONS_JSON"
BENCH_JSON_DEFAULT = REPO_ROOT / "BENCH_expressions.json"
BENCH_DAG_JSON_ENV = "BENCH_DAG_JSON"
BENCH_DAG_JSON_DEFAULT = REPO_ROOT / "BENCH_dag.json"
BENCH_CACHE_JSON_ENV = "BENCH_CACHE_JSON"
BENCH_CACHE_JSON_DEFAULT = REPO_ROOT / "BENCH_cache.json"
BENCH_SCHED_JSON_ENV = "BENCH_SCHED_JSON"
BENCH_SCHED_JSON_DEFAULT = REPO_ROOT / "BENCH_sched.json"


def _write_series(terminalreporter, payload: dict, env: str, default, label: str):
    if not payload:
        return
    path = os.environ.get(env) or str(default)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    terminalreporter.write_line(f"{label} series written to {path}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the paper-style series tables and write the BENCH json files."""
    if _RECORDER.points:
        terminalreporter.write_line("")
        terminalreporter.write_line("Paper-figure series reproduced by this benchmark run")
        for line in _RECORDER.tables().splitlines():
            terminalreporter.write_line(line)
        payload = _RECORDER.as_json()
        dag_payload = {figure: series for figure, series in payload.items()
                       if figure.startswith("DAG")}
        cache_payload = {figure: series for figure, series in payload.items()
                         if figure.startswith("CACHE")}
        sched_payload = {figure: series for figure, series in payload.items()
                         if figure.startswith("SCHED")}
        expr_payload = {figure: series for figure, series in payload.items()
                        if not (figure.startswith("DAG")
                                or figure.startswith("CACHE")
                                or figure.startswith("SCHED"))}
        _write_series(terminalreporter, expr_payload, BENCH_JSON_ENV,
                      BENCH_JSON_DEFAULT, "Benchmark")
        _write_series(terminalreporter, dag_payload, BENCH_DAG_JSON_ENV,
                      BENCH_DAG_JSON_DEFAULT, "DAG scheduling")
        _write_series(terminalreporter, cache_payload, BENCH_CACHE_JSON_ENV,
                      BENCH_CACHE_JSON_DEFAULT, "Job-cache")
        _write_series(terminalreporter, sched_payload, BENCH_SCHED_JSON_ENV,
                      BENCH_SCHED_JSON_DEFAULT, "Scheduler-core")


@pytest.fixture
def engine_session():
    """Factory: open a :class:`repro.api.Session` for any registered engine.

    Benchmarks use this to drive every execution path through the one unified
    interface; all opened sessions are closed at teardown.
    """
    from repro import api

    sessions = []

    def open_session(engine: str, **engine_options):
        session = api.Session(engine=engine, **engine_options)
        sessions.append(session)
        return session

    yield open_session
    for session in sessions:
        session.close()


@pytest.fixture(scope="session")
def conformance_corpus():
    """The declarative conformance corpus, loaded once per benchmark session.

    Shared with the differential-matrix benchmark so corpus parsing cost is
    paid once, exactly like the tests/conformance tier does.
    """
    from repro.testing.corpus import load_corpus

    return load_corpus()


@pytest.fixture
def image_workload(tmp_path_factory):
    """Factory: generate N synthetic images and return the CWL job order for them."""
    from repro.imaging.synthetic import generate_image_files

    def build(count: int, size: int = 64):
        directory = tmp_path_factory.mktemp(f"images_{count}")
        paths = generate_image_files(directory, count, width=size, height=size)
        return {
            "input_images": [{"class": "File", "path": path} for path in paths],
            "size": 32,
            "sepia": True,
            "radius": 1,
        }

    return build


@pytest.fixture(autouse=True)
def _clean_state():
    """Never leak a loaded DataFlowKernel or the shared cluster between benchmarks."""
    yield
    from repro.cluster.scheduler import reset_default_cluster
    from repro.parsl.dataflow.dflow import DataFlowKernelLoader

    try:
        DataFlowKernelLoader.clear()
    except Exception:
        pass
    try:
        reset_default_cluster()
    except Exception:
        pass
