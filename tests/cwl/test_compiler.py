"""Tests for the compiled-expression pipeline.

Correctness is defined by equivalence: for every expression the compiled
evaluator must produce exactly what the uncached cwltool-fidelity evaluator
produces, including value types and error messages.  On top of that the
caching layers themselves are exercised — the per-evaluator template memo,
library fingerprint invalidation, the memoized scanners, the process's own
evaluator, the loader's sub-document cache and the copy-on-write job views.
"""

from __future__ import annotations

import threading

import pytest

from repro.cwl.cow import job_order_view
from repro.cwl.expressions.compiler import (
    CompiledEvaluator,
    CompiledTemplate,
    compile_cache_stats,
    precompile_process,
)
from repro.cwl.expressions.evaluator import ExpressionEvaluator
from repro.cwl.expressions.jsengine.closures import shared_library_scope
from repro.cwl.expressions.paramrefs import (
    is_simple_parameter_reference,
    scan_expressions,
    tokenize_path,
)
from repro.cwl.loader import clear_document_cache, load_document, load_document_cached

JS_LIB = """
function shout(word) { return word.toUpperCase() + "!"; }
function total(xs) {
  var sum = 0;
  for (var i = 0; i < xs.length; i++) { sum += xs[i]; }
  return sum;
}
"""

CONTEXT = {
    "inputs": {
        "word": "hello",
        "count": 3,
        "flag": True,
        "values": [1, 2, 3, 4],
        "file": {"class": "File", "path": "/data/x.tar.gz", "basename": "x.tar.gz",
                 "size": 120},
        "maybe": None,
    },
    "runtime": {"cores": 4, "outdir": "/out"},
    "self": None,
}

#: A grid covering every template kind and expression classification.
PARITY_CASES = [
    "plain string, no expressions",
    r"escaped \$(not.an.expression) dollar",
    "$(inputs.word)",
    "$(inputs.count)",
    "$(inputs.flag)",
    "$(inputs.values)",
    "$(inputs.values[2])",
    "$(inputs.file.basename)",
    "$(inputs['file']['size'])",
    "$(inputs.maybe)",
    "$(runtime.cores)",
    "$(inputs.word.toUpperCase())",
    "$(shout(inputs.word))",
    "$(total(inputs.values))",
    "$(inputs.values.map(function(x){ return x * 2; }))",
    "$(inputs.count > 2 ? 'many' : 'few')",
    "${ return shout(inputs.word); }",
    "${ var n = total(inputs.values); return n + inputs.count; }",
    "word=$(inputs.word) count=$(inputs.count)",
    "mixed $(shout(inputs.word)) and ${ return inputs.count * 2; } tail",
    "  $(inputs.word)",
    "$(inputs.word)  ",
    "$(inputs.file.basename.split('.')[0])",
]


@pytest.fixture
def compiled():
    return CompiledEvaluator(expression_lib=[JS_LIB])


@pytest.fixture
def uncached():
    return ExpressionEvaluator(expression_lib=[JS_LIB])


@pytest.mark.parametrize("source", PARITY_CASES)
def test_compiled_matches_uncached(source, compiled, uncached):
    expected = uncached.evaluate(source, CONTEXT)
    actual = compiled.evaluate(source, CONTEXT)
    assert actual == expected
    assert type(actual) is type(expected)


def test_compiled_matches_uncached_repeatedly(compiled, uncached):
    """Second and later evaluations come from caches — results must not drift."""
    for _ in range(3):
        for source in PARITY_CASES:
            assert compiled.evaluate(source, CONTEXT) == uncached.evaluate(source, CONTEXT)


def test_compiled_evaluate_structure(compiled, uncached):
    structure = {"a": "$(inputs.word)", "b": ["$(inputs.count)", {"c": "${ return 1; }"}]}
    assert compiled.evaluate_structure(structure, CONTEXT) == \
        uncached.evaluate_structure(structure, CONTEXT)


def test_compiled_non_string_passthrough(compiled):
    assert compiled.evaluate(42, CONTEXT) == 42
    assert compiled.evaluate(None, CONTEXT) is None
    assert compiled.evaluate(["$(inputs.word)"], CONTEXT) == ["$(inputs.word)"]


def test_shared_library_scope_reused():
    first = CompiledEvaluator(expression_lib=[JS_LIB])
    second = CompiledEvaluator(expression_lib=[JS_LIB])
    different = CompiledEvaluator(expression_lib=[JS_LIB + "\nvar extra = 1;"])
    assert first.scope is second.scope
    assert first.scope is not different.scope


def test_library_change_invalidates_cache():
    """Same source string, different expressionLib content → recompiled, new result."""
    lib_a = "function tag(w) { return 'A:' + w; }"
    lib_b = "function tag(w) { return 'B:' + w; }"
    source = "$(tag(inputs.word))"
    evaluator_a = CompiledEvaluator(expression_lib=[lib_a])
    evaluator_b = CompiledEvaluator(expression_lib=[lib_b])
    assert evaluator_a.evaluate(source, CONTEXT) == "A:hello"
    assert evaluator_b.evaluate(source, CONTEXT) == "B:hello"
    # And the original is untouched by the second compilation.
    assert evaluator_a.evaluate(source, CONTEXT) == "A:hello"
    assert evaluator_a.scope.fingerprint != evaluator_b.scope.fingerprint


def test_template_cache_keyed_by_fingerprint():
    """Each evaluator memoizes its own templates: a repeat is a hit on the
    same template, and an evaluator of another library compiles its own."""
    evaluator_a = CompiledEvaluator(expression_lib=["var fp = 'a';"])
    evaluator_b = CompiledEvaluator(expression_lib=["var fp = 'b';"])
    before = compile_cache_stats()
    evaluator_a.evaluate("$(inputs.word)", CONTEXT)
    evaluator_b.evaluate("$(inputs.word)", CONTEXT)
    evaluator_a.evaluate("$(inputs.word)", CONTEXT)
    after = compile_cache_stats()
    assert evaluator_a._templates["$(inputs.word)"] is not evaluator_b._templates["$(inputs.word)"]
    assert after["misses"] - before["misses"] == 2
    assert after["hits"] - before["hits"] == 1


def test_template_cache_is_bounded(cwl_dir, tmp_path):
    """Only document strings reach a process's evaluator, so however many
    distinct inputs a tool runs with, its memo holds the document's strings:
    here the argument and the stdout name."""
    from repro.cwl.runners.toil.runner import ToilStyleRunner
    from repro.cwl.runtime import RuntimeContext

    tool = load_document(str(cwl_dir / "capitalize_js.cwl"))
    runner = ToilStyleRunner(runtime_context=RuntimeContext(basedir=str(tmp_path)))
    try:
        for index in range(5):
            runner.execute(tool, {"message": f"message number {index} $(inputs.x) ${{ 1 }}"})
    finally:
        runner.close()
    assert set(tool.compiled._templates) == {"$(capitalizeWords(inputs.message))",
                                             "capitalized.txt"}


def test_template_classification():
    assert CompiledTemplate("just text").kind == "plain"
    assert CompiledTemplate("$(inputs.word)").kind == "single"
    assert CompiledTemplate("a $(inputs.word) b").kind == "interpolate"
    assert CompiledTemplate("$(inputs.word)").single.kind == "param"
    assert CompiledTemplate("$(shout(inputs.word))").single.kind == "js"
    assert CompiledTemplate("${ return 1; }").single.kind == "body"


def test_compiled_evaluator_is_thread_safe():
    """One shared evaluator, many threads, per-thread contexts — no cross-talk."""
    evaluator = CompiledEvaluator(expression_lib=[JS_LIB])
    errors = []

    def worker(tag: str) -> None:
        try:
            for index in range(200):
                context = {"inputs": {"word": f"{tag}{index}", "count": index,
                                      "values": [index], "flag": True,
                                      "file": CONTEXT["inputs"]["file"], "maybe": None},
                           "runtime": {}, "self": None}
                assert evaluator.evaluate("$(shout(inputs.word))", context) == \
                    f"{tag.upper()}{index}!"
                assert evaluator.evaluate("${ return inputs.count + 1; }", context) == index + 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tag,)) for tag in ("aa", "bb", "cc", "dd")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


# ------------------------------------------------------------ memoized scanners


def test_scan_expressions_memoized():
    scan_expressions.cache_clear()
    text = "scatter $(inputs.word) over $(inputs.count) jobs"
    first = scan_expressions(text)
    hits_before = scan_expressions.cache_info().hits
    second = scan_expressions(text)
    assert second is first  # literally the cached tuple
    assert scan_expressions.cache_info().hits == hits_before + 1


def test_simple_reference_classifier_memoized():
    is_simple_parameter_reference.cache_clear()
    assert is_simple_parameter_reference("inputs.word")
    hits_before = is_simple_parameter_reference.cache_info().hits
    for _ in range(5):
        assert is_simple_parameter_reference("inputs.word")
    assert is_simple_parameter_reference.cache_info().hits == hits_before + 5


def test_tokenize_path_memoized():
    tokenize_path.cache_clear()
    assert tokenize_path("inputs.values[0]") == ("inputs", "values", 0)
    assert tokenize_path.cache_info().currsize == 1
    tokenize_path("inputs.values[0]")
    assert tokenize_path.cache_info().hits >= 1


# --------------------------------------------------------- precompiled process


def test_precompile_process_pins_every_expression(cwl_dir):
    """``precompile_process`` gives a process one evaluator of its own, with
    the process's ``expressionLib``; every expression compiles into it the
    first time it is evaluated and is served from it afterwards."""
    tool = load_document(str(cwl_dir / "capitalize_js.cwl"))
    evaluator = precompile_process(tool)
    assert tool.compiled is evaluator
    assert precompile_process(tool) is evaluator  # memoized on the process
    assert any("capitalizeWords" in source for source in evaluator.expression_lib)
    context = {"inputs": {"message": "two words"}, "runtime": {}, "self": None}
    assert evaluator.evaluate("$(capitalizeWords(inputs.message))", context) == "Two Words"
    template = evaluator._templates["$(capitalizeWords(inputs.message))"]
    evaluator.evaluate("$(capitalizeWords(inputs.message))", context)
    assert evaluator._templates["$(capitalizeWords(inputs.message))"] is template


# ------------------------------------------------------------------- cow views


def test_job_order_view_isolates_containers():
    original = {"file": {"class": "File", "path": "/p", "basename": "p"},
                "values": [1, 2, [3]], "word": "w"}
    view = job_order_view(original)
    assert view == original
    view["file"]["checksum"] = "sha1$deadbeef"
    view["values"].append(4)
    view["values"][2].append(5)
    assert "checksum" not in original["file"]
    assert original["values"] == [1, 2, [3]]
    # Leaves are shared, not copied.
    assert view["word"] is original["word"]


# --------------------------------------------------------------- loader cache


def test_load_document_cached_shares_and_invalidates(tmp_path):
    clear_document_cache()
    document = tmp_path / "tool.cwl"
    document.write_text(
        "cwlVersion: v1.2\nclass: CommandLineTool\nid: cached_tool\n"
        "baseCommand: echo\ninputs: []\noutputs: []\n"
    )
    first = load_document_cached(document)
    second = load_document_cached(document)
    assert first is second
    # A content change (different size) must invalidate the entry.
    document.write_text(
        "cwlVersion: v1.2\nclass: CommandLineTool\nid: cached_tool_v2\n"
        "baseCommand: echo\ninputs: []\noutputs: []\n"
    )
    third = load_document_cached(document)
    assert third is not first
    assert third.id == "cached_tool_v2"


def test_load_document_cached_invalidates_on_embedded_change(tmp_path):
    """Editing a run: sub-file must invalidate the cached *parent* workflow."""
    clear_document_cache()
    tool = tmp_path / "tool.cwl"
    tool.write_text(
        "cwlVersion: v1.2\nclass: CommandLineTool\nid: child_v1\n"
        "baseCommand: echo\ninputs: []\noutputs: []\n"
    )
    workflow = tmp_path / "wf.cwl"
    workflow.write_text(
        "cwlVersion: v1.2\nclass: Workflow\nid: parent\n"
        "inputs: []\noutputs: []\n"
        "steps:\n  one:\n    run: tool.cwl\n    in: {}\n    out: []\n"
    )
    first = load_document_cached(workflow)
    assert first.steps[0].embedded_process.id == "child_v1"
    tool.write_text(
        "cwlVersion: v1.2\nclass: CommandLineTool\nid: child_v2!\n"
        "baseCommand: echo\ninputs: []\noutputs: []\n"
    )
    second = load_document_cached(workflow)
    assert second is not first
    assert second.steps[0].embedded_process.id == "child_v2!"


def test_workflow_step_evaluator_matches_uncompiled_semantics():
    """A step's ``when`` / ``valueFrom`` use the owning workflow's evaluator:
    the reference runner's fresh one and the compiled one of every other
    engine see the same ``expressionLib`` and give the same answers."""
    from repro.cwl.runners.reference import ReferenceRunner
    from repro.cwl.runners.toil.runner import ToilStyleRunner
    from repro.cwl.workflow import WorkflowEngine

    workflow = load_document({
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "InlineJavascriptRequirement",
                          "expressionLib": [JS_LIB]}],
        "inputs": {}, "outputs": {}, "steps": {},
    })
    toil = ToilStyleRunner()
    try:
        evaluators = [ReferenceRunner().evaluator_for(workflow), toil.evaluator_for(workflow)]
    finally:
        toil.close()
    assert isinstance(evaluators[0], ExpressionEvaluator)
    assert evaluators[1] is precompile_process(workflow)
    engine = WorkflowEngine(workflow, process_runner=lambda *a: {})
    assert engine.evaluator_for(workflow) is evaluators[1]
    context = {"inputs": {"x": 2, "word": "hi"}, "self": None, "runtime": {}}
    for source in ("$(inputs.x * 2)", "$(shout(inputs.word))"):
        assert evaluators[0].evaluate(source, context) == \
            evaluators[1].evaluate(source, context)
    assert evaluators[1].evaluate("$(shout(inputs.word))", context) == "HI!"
