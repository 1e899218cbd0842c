"""Figure 2 — expression-evaluation runtime vs number of words (2 → 1024).

The paper compares the time to run the Listing-5 workflow (echo a message whose
words are capitalised by an embedded expression) as the message length grows:

* InlineJavaScript via cwltool   → capitalize_js.cwl through the ReferenceRunner
  (a fresh JavaScript engine is built per evaluation, as cwltool spawns node.js)
* InlineJavaScript via Toil      → capitalize_js.cwl through the ToilStyleRunner
  (which now defaults to the compiled-expression pipeline — parse-once ASTs,
  shared library scopes — so its curve sits well below the reference runner's)
* InlinePython via Parsl-CWL     → capitalize_python.cwl through a CWLApp
  (the Python expression evaluates natively in the runner's interpreter)

The paper reports a superlinear increase for the JavaScript runners and an
essentially flat curve for InlinePython; the same shape is asserted here, plus
the compiled-pipeline acceptance bar: at the largest workload the toil and
parsl series are at least 2× faster than the uncached reference series.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.core import CWLApp
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


def test_fig2_shape_python_flat_javascript_grows(series_recorder):
    """Shape check: JS expression cost grows with word count much faster than InlinePython.

    The paper shows roughly constant InlinePython cost and a superlinear JS curve;
    here we assert (a) the JS growth factor from the smallest to the largest word
    count exceeds the InlinePython growth factor, and (b) at 1024 words InlinePython
    is faster than both JavaScript runners.
    """
    figure = series_recorder.points.get(FIGURE, {})
    if not figure:
        pytest.skip("benchmarks did not run")
    smallest, largest = WORD_COUNTS[0], WORD_COUNTS[-1]

    def growth(series):
        small = figure.get((series, smallest))
        large = figure.get((series, largest))
        if small is None or large is None or small == 0:
            return None
        return large / small

    js_growth = growth("InlineJavaScript (cwltool-like)")
    py_growth = growth("InlinePython (parsl-cwl)")
    if js_growth is None or py_growth is None:
        pytest.skip("not all series were measured")
    assert js_growth > py_growth, (
        f"JS growth {js_growth:.2f}x should exceed InlinePython growth {py_growth:.2f}x"
    )

    js_large = figure.get(("InlineJavaScript (cwltool-like)", largest))
    toil_large = figure.get(("InlineJavaScript (toil-like)", largest))
    py_large = figure.get(("InlinePython (parsl-cwl)", largest))
    if None not in (js_large, toil_large, py_large):
        assert py_large <= js_large
        assert py_large <= toil_large


def test_fig2_compiled_engines_at_least_2x_faster_than_reference(
        cwl_dir, tmp_path, interleaved_medians):
    """Acceptance: toil (compiled pipeline) and parsl beat the uncached
    reference series by at least 2× on the largest workload, while the
    reference series itself keeps its uncached cost model (asserted by
    ``test_fig2_shape_python_flat_javascript_grows`` above).  Medians of
    interleaved repeats, not the single recorded points of the series."""
    largest = WORD_COUNTS[-1]
    message = message_of(largest)
    medians = interleaved_medians({
        series: (lambda runner=runner, series=series:
                 runner(cwl_dir, message, tmp_path / series.replace(" ", "_")))
        for series, runner in SERIES.items()})
    reference = medians["InlineJavaScript (cwltool-like)"]
    toil = medians["InlineJavaScript (toil-like)"]
    parsl = medians["InlinePython (parsl-cwl)"]
    assert toil * 2 <= reference, (
        f"compiled toil series ({toil:.4f}s) should be at least 2x faster than the "
        f"uncached reference series ({reference:.4f}s) at {largest} words"
    )
    assert parsl * 2 <= reference, (
        f"parsl series ({parsl:.4f}s) should be at least 2x faster than the "
        f"uncached reference series ({reference:.4f}s) at {largest} words"
    )
