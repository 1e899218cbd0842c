"""Ablation A5 — what does the compiled-expression pipeline buy?

Two configurations of the one expression compiler evaluate the same workload
at increasing evaluation counts:

* **uncached** — :class:`ExpressionEvaluator` keeps nothing (cwltool
  fidelity: re-scan, re-parse, re-compile, rebuild the stdlib and re-run the
  expressionLib in a fresh scope every time, the Figure 2 cost model),
* **compiled** — :class:`CompiledEvaluator`: each distinct string compiled
  once into the evaluator's memo, one shared library scope.

The recorded series land in ``BENCH_expressions.json`` (figure → series →
points) so future PRs can track the trajectory.  Their timings are asserted
nowhere; the shape test asserts what the difference *is* — the uncached
pipeline parses and builds a scope for every JavaScript evaluation, the
compiled one once per distinct string and library — as a count.
"""

from __future__ import annotations

import pytest

from repro.cwl.expressions import compiler
from repro.cwl.expressions.compiler import CompiledEvaluator, compile_cache_stats
from repro.cwl.expressions.evaluator import ExpressionEvaluator

EVALUATION_COUNTS = [32, 128, 512]
FIGURE = "Ablation A5: expression pipeline runtime [s] vs evaluations"

JS_LIB = """
function addTag(word) {
  return "[" + word.toUpperCase() + "]";
}
"""

#: A small rotation of distinct strings: simple parameter references, JS
#: calls into the library, and an interpolated template — the mix one job's
#: bindings actually contain.
EXPRESSIONS = [
    "$(inputs.word)",
    "$(addTag(inputs.word))",
    "prefix $(inputs.word) :: $(addTag(inputs.word)) suffix",
    "${ return addTag(inputs.word) + '!'; }",
]


def run_workload(evaluator, count: int) -> None:
    for index in range(count):
        context = {"inputs": {"word": f"word{index}"}, "runtime": {}, "self": None}
        result = evaluator.evaluate(EXPRESSIONS[index % len(EXPRESSIONS)], context)
        assert result


def make_uncached():
    return ExpressionEvaluator(expression_lib=[JS_LIB])


def make_compiled():
    return CompiledEvaluator(expression_lib=[JS_LIB])


SERIES = {
    "uncached (fresh engine per evaluation)": make_uncached,
    "compiled (parse-once AST cache)": make_compiled,
}


@pytest.mark.parametrize("count", EVALUATION_COUNTS)
@pytest.mark.parametrize("series", list(SERIES))
def test_ablation_compile_cache(benchmark, series, count, series_recorder):
    factory = SERIES[series]
    evaluator = factory()
    run_workload(evaluator, 4)  # warm caches so the fixed setup cost is excluded

    benchmark.pedantic(run_workload, args=(evaluator, count), rounds=1, iterations=2)
    series_recorder.record(FIGURE, series, count, benchmark.stats.stats.mean)


def test_ablation_shape_compiled_at_least_2x_faster(monkeypatch):
    """Acceptance, as a count: over 512 evaluations (384 of them JavaScript) the
    uncached pipeline parses and builds a scope 384 times, the compiled one
    parses each of the three distinct JavaScript sources once."""
    parses = []

    def recording(parse):
        def recorded(source):
            parses.append(source)
            return parse(source)

        return recorded

    for name in ("parse_expression", "parse_program"):
        monkeypatch.setattr(compiler, name, recording(getattr(compiler, name)))
    largest = EVALUATION_COUNTS[-1]
    javascript = largest * 3 // 4  # EXPRESSIONS[0] is a parameter reference, [2] holds one JS call

    uncached = make_uncached()
    run_workload(uncached, largest)
    assert uncached.engine_builds == len(parses) == javascript

    parses.clear()
    before = compile_cache_stats()
    run_workload(make_compiled(), largest)
    after = compile_cache_stats()
    assert len(parses) == 3
    assert after["misses"] - before["misses"] == len(EXPRESSIONS)
    assert after["hits"] - before["hits"] == largest - len(EXPRESSIONS)


def test_ablation_compile_cache_is_actually_hit():
    """The workload's repeated strings must be served from the evaluator's memo."""
    evaluator = CompiledEvaluator(expression_lib=[JS_LIB])
    run_workload(evaluator, 8)
    before = compile_cache_stats()
    run_workload(evaluator, 64)
    after = compile_cache_stats()
    assert after["hits"] - before["hits"] == 64
    assert after["misses"] == before["misses"]
