"""Figure 2 — expression-evaluation runtime vs number of words (2 → 1024).

The paper compares the time to run the Listing-5 workflow (echo a message whose
words are capitalised by an embedded expression) as the message length grows:

* InlineJavaScript via cwltool   → capitalize_js.cwl through the ReferenceRunner
  (the expression is re-parsed and a fresh library scope built per evaluation,
  as cwltool spawns node.js)
* InlineJavaScript via Toil      → capitalize_js.cwl through the ToilStyleRunner
  (whose expression pipeline compiles each string once per process object
  and shares library scopes, so its curve sits well below the reference
  runner's)
* InlinePython via Parsl-CWL     → capitalize_python.cwl through a CWLApp
  (the Python expression evaluates natively in the runner's interpreter)

The paper reports a superlinear increase for the JavaScript runners and an
essentially flat curve for InlinePython.  What makes that shape is asserted
here as counts: the JS function calls per evaluation grow with the word
count, and InlinePython makes none.  What separates the two JavaScript
series — the reference engine parses and builds a library scope per
evaluation, toil once per process — is asserted as a count too; the recorded
timings are asserted nowhere.
"""

from __future__ import annotations

import collections
import os
import sys
import threading

import pytest

import repro
from repro.core import CWLApp
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.imaging.synthetic import word_corpus

WORD_COUNTS = [2, 16, 128, 1024]
FIGURE = "Figure 2: expression runtime [s] vs number of words"


def message_of(count: int) -> str:
    return " ".join(word_corpus(count, seed=42))


def run_js_reference(cwl_dir, message, workdir):
    result = repro.api.run(str(cwl_dir / "capitalize_js.cwl"), {"message": message},
                           engine="reference",
                           runtime_context=RuntimeContext(basedir=str(workdir)))
    assert result.outputs["output"]["size"] > 0


def run_js_toil(cwl_dir, message, workdir):
    result = repro.api.run(str(cwl_dir / "capitalize_js.cwl"), {"message": message},
                           engine="toil", job_store_dir=str(workdir / "jobstore"),
                           runtime_context=RuntimeContext(basedir=str(workdir)),
                           destroy_job_store_on_close=True)
    assert result.outputs["output"]["size"] > 0


def run_python_parsl(cwl_dir, message, workdir):
    previous = os.getcwd()
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    repro.load(repro.thread_config(max_threads=2, run_dir=str(workdir / "runinfo")))
    try:
        app = CWLApp(str(cwl_dir / "capitalize_python.cwl"))
        future = app(message=message, stdout="capitalized.txt")
        assert future.result() == 0
    finally:
        repro.clear()
        os.chdir(previous)


SERIES = {
    "InlineJavaScript (cwltool-like)": run_js_reference,
    "InlineJavaScript (toil-like)": run_js_toil,
    "InlinePython (parsl-cwl)": run_python_parsl,
}


@pytest.mark.parametrize("words", WORD_COUNTS)
@pytest.mark.parametrize("series", list(SERIES))
def test_fig2_expression_scaling(benchmark, series, words, cwl_dir, tmp_path, series_recorder):
    message = message_of(words)
    runner = SERIES[series]

    def run():
        runner(cwl_dir, message, tmp_path / series.replace(" ", "_"))

    # Three rounds, best-of recorded: per-job jitter (subprocess spawn, job
    # store IO) would otherwise drown the expression-pipeline signal the
    # figure exists to show.
    benchmark.pedantic(run, rounds=3, iterations=2)
    series_recorder.record(FIGURE, series, words, benchmark.stats.stats.min)


def js_calls_of(run):
    """``(JS function calls, JS evaluations)`` made while ``run()`` runs, on
    every thread it starts, counted by a profile hook (no clock).

    A JS evaluation is one :meth:`LibraryScope.evaluate` / ``run_body``; a JS
    function call is one call of a function the back end emitted, other than
    the function a whole expression, body or library source compiles to."""
    from repro.cwl.expressions.jsengine import closures
    from repro.cwl.expressions.jsengine.parser import parse_expression

    evaluations = {closures.LibraryScope.evaluate.__code__,
                   closures.LibraryScope.run_body.__code__}
    unit = closures.compile_expression_ast(parse_expression("0")).__code__
    counts = collections.Counter()
    lock = threading.Lock()

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        kind = "evaluations" if code in evaluations else "calls" if (
            code.co_filename == unit.co_filename and code.co_name != unit.co_name) else None
        if kind is not None:
            with lock:
                counts[kind] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts["calls"], counts["evaluations"]


def test_fig2_shape_python_flat_javascript_grows(cwl_dir, tmp_path):
    """Shape check, by count instead of by clock: what makes the JavaScript
    curves grow and the InlinePython curve flat.

    On both JavaScript series the JS function calls per evaluation grow with
    the word count by exactly one per word (``capitalizeWords``' ``map``
    callback runs once per word); an InlinePython run makes no JS call and no
    JS evaluation at any word count.  The timings stay recorded series
    (``BENCH_expressions.json``), asserted nowhere."""
    per_evaluation = collections.defaultdict(list)
    for words in WORD_COUNTS:
        message = message_of(words)
        for series, runner in SERIES.items():
            workdir = tmp_path / f"{series.replace(' ', '_')}-{words}"
            calls, evaluations = js_calls_of(lambda: runner(cwl_dir, message, workdir))
            if series.startswith("InlinePython"):
                assert (calls, evaluations) == (0, 0), (series, words)
            else:
                assert evaluations > 0 and calls % evaluations == 0, (series, words)
                per_evaluation[series].append(calls // evaluations)
    smallest, largest = WORD_COUNTS[0], WORD_COUNTS[-1]
    for series, counts in per_evaluation.items():
        assert counts == sorted(set(counts)), (series, counts)  # strictly growing
        assert counts[-1] - counts[0] == largest - smallest, (series, counts)


def test_fig2_compiled_engines_at_least_2x_faster_than_reference(cwl_dir, tmp_path, monkeypatch):
    """Acceptance, by count instead of by clock: what separates the series is
    what each engine keeps.  Over 8 runs of ``capitalize_js.cwl`` in one
    process the reference engine parses the argument expression and builds a
    library scope (standard library + ``expressionLib``) for every run; the
    compiled toil engine does each exactly once.  Both orders run on one
    loaded process object, so neither engine's pipeline leaks into the
    other's."""
    from repro.cwl.expressions import compiler
    from repro.cwl.expressions.jsengine import closures

    counts = collections.Counter()
    build_scope, parse = closures.LibraryScope.__init__, compiler.parse_expression

    def counted_build(scope, expression_lib=None):
        counts["scopes"] += 1
        build_scope(scope, expression_lib)

    def counted_parse(source):
        if source == "capitalizeWords(inputs.message)":
            counts["parses"] += 1
        return parse(source)

    monkeypatch.setattr(closures.LibraryScope, "__init__", counted_build)
    monkeypatch.setattr(compiler, "parse_expression", counted_parse)
    message = message_of(WORD_COUNTS[1])

    def eight_runs(engine, process):
        counts.clear()
        workdir = tmp_path / engine
        options = {"job_store_dir": str(workdir / "jobstore"),
                   "destroy_job_store_on_close": True} if engine == "toil" else {}
        for _ in range(8):
            result = repro.api.run(process, {"message": message}, engine=engine,
                                   runtime_context=RuntimeContext(basedir=str(workdir)),
                                   **options)
            assert result.outputs["output"]["size"] > 0
        return dict(counts)

    for order in (("reference", "toil"), ("toil", "reference")):
        process = load_document(str(cwl_dir / "capitalize_js.cwl"))
        closures.clear_scope_cache()  # the toil runs build the shared scope once
        for engine in order:
            counted = eight_runs(engine, process)
            if engine == "reference":
                assert counted["scopes"] >= 8 and counted["parses"] >= 8, (order, counted)
            else:
                assert counted == {"scopes": 1, "parses": 1}, (order, counted)
