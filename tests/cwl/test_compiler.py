"""Tests for the compiled-expression pipeline.

Correctness is defined by equivalence: for every expression the compiled
evaluator must produce exactly what the uncached cwltool-fidelity evaluator
produces, including value types and error messages.  On top of that the
caching layers themselves are exercised — the bounded template LRU, library
fingerprint invalidation, the memoized scanners, the precompiled-process
pass, the loader's sub-document cache and the copy-on-write job views.
"""

from __future__ import annotations

import threading

import pytest

from repro.cwl.cow import job_order_view
from repro.cwl.errors import ExpressionError
from repro.cwl.expressions.compiler import (
    CompiledEvaluator,
    CompiledTemplate,
    _CompileCache,
    clear_compile_cache,
    compile_cache_stats,
    compile_template,
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


def test_js_disabled_error_message_parity():
    compiled = CompiledEvaluator(js_enabled=False)
    uncached = ExpressionEvaluator(js_enabled=False)
    for source in ("$(inputs.word.toUpperCase())", "${ return 1; }"):
        with pytest.raises(ExpressionError) as compiled_error:
            compiled.evaluate(source, CONTEXT)
        with pytest.raises(ExpressionError) as uncached_error:
            uncached.evaluate(source, CONTEXT)
        assert str(compiled_error.value) == str(uncached_error.value)
    # Simple parameter references still work without JS, as the spec requires.
    assert compiled.evaluate("$(inputs.word)", CONTEXT) == "hello"


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
    clear_compile_cache()
    template_a = compile_template("$(inputs.word)", True, "fp-a")
    template_b = compile_template("$(inputs.word)", True, "fp-b")
    template_a_again = compile_template("$(inputs.word)", True, "fp-a")
    assert template_a is template_a_again
    assert template_a is not template_b
    stats = compile_cache_stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 2


def test_template_cache_is_bounded():
    cache = _CompileCache(maxsize=8)
    for index in range(50):
        cache.get_or_compile(f"literal-{index}", True, "")
    assert cache.stats()["size"] <= 8


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
    tool = load_document(str(cwl_dir / "capitalize_js.cwl"))
    compilation = precompile_process(tool)
    # The argument expression and the stdout name, at minimum.
    assert compilation.expression_count >= 2
    assert compilation.skipped == 0
    assert tool.compiled is compilation
    assert precompile_process(tool) is compilation  # memoized
    # The argument template is pinned on the evaluator, not just in the LRU.
    assert "$(capitalizeWords(inputs.message))" in compilation.evaluator._pinned


def test_precompile_workflow_recurses_into_steps(cwl_dir):
    workflow = load_document(str(cwl_dir / "image_pipeline.cwl"))
    precompile_process(workflow)
    assert workflow.compiled is not None
    for step in workflow.steps:
        if step.embedded_process is not None:
            assert step.embedded_process.compiled is not None


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


def test_workflow_step_evaluator_matches_uncompiled_semantics(cwl_dir):
    """Step-level expressions must not gain expressionLib access in compiled
    mode — both modes see the same (lib-less) evaluation environment."""
    from repro.cwl.runtime import RuntimeContext
    from repro.cwl.workflow import WorkflowEngine

    workflow = load_document(str(cwl_dir / "image_pipeline.cwl"))
    compiled_engine = WorkflowEngine(
        workflow, process_runner=lambda *a: {},
        runtime_context=RuntimeContext(compile_expressions=True))
    uncompiled_engine = WorkflowEngine(
        workflow, process_runner=lambda *a: {},
        runtime_context=RuntimeContext(compile_expressions=False))
    compiled_evaluator = compiled_engine._step_evaluator()
    assert compiled_evaluator.expression_lib == []
    context = {"inputs": {"x": 2}, "self": None, "runtime": {}}
    assert compiled_evaluator.evaluate("$(inputs.x * 2)", context) == \
        uncompiled_engine._step_evaluator().evaluate("$(inputs.x * 2)", context)
