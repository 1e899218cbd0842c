"""Ablation A3 — where does the JavaScript expression cost go?

Figure 2's JavaScript curve comes from two compounding costs: the
per-evaluation fixed cost (cwltool starts a fresh node.js sandbox; here the
expression and the ``expressionLib`` are tokenized, parsed and compiled to a
Python code object again) and the evaluation itself.  This ablation prices the
fixed part on the pure-Python engine:

* tokenize / parse costs for the capitalisation expression and its library,
* the one ``compile()`` of the emitted library, and a whole library scope
  (standard library, parse, compile, run) — what the reference engine builds
  for every evaluation,
* the equivalent InlinePython evaluation for reference.

Whole evaluations under the two cost models (keep nothing vs parse once) are
the series of ``test_ablation_compile_cache.py``.
"""

from __future__ import annotations

import pytest

from repro.core.inline_python import InlinePythonEvaluator
from repro.cwl.expressions.jsengine.closures import LibraryScope, compile_program_ast
from repro.cwl.expressions.jsengine.parser import parse_expression, parse_program
from repro.cwl.expressions.jsengine.tokenizer import tokenize
from repro.imaging.synthetic import word_corpus

WORDS = 256

JS_LIB = """
function capitalize_words(message) {
  var words = message.split(' ');
  var out = [];
  for (var i = 0; i < words.length; i++) {
    var w = words[i];
    if (w.length > 0) {
      out.push(w.charAt(0).toUpperCase() + w.slice(1));
    }
  }
  return out.join(' ');
}
"""

PY_LIB = ["def capitalize_words(message):\n    return message.title()\n"]


@pytest.fixture(scope="module")
def message():
    return " ".join(word_corpus(WORDS, seed=7))


@pytest.fixture(scope="module")
def context(message):
    return {"inputs": {"message": message}, "runtime": {}, "self": None}


def test_js_tokenize_cost(benchmark):
    benchmark(tokenize, JS_LIB)


def test_js_parse_expression_cost(benchmark):
    benchmark(parse_expression, "capitalize_words(inputs.message)")


def test_js_parse_library_cost(benchmark):
    benchmark(parse_program, JS_LIB)


def test_js_compile_library_cost(benchmark):
    """The emitted library: its Python AST built and compiled once."""
    program = parse_program(JS_LIB)
    benchmark(compile_program_ast, program)


def test_js_library_scope_cost(benchmark):
    """A whole fresh library scope: the reference engine's fixed cost."""
    scope = benchmark(LibraryScope, [JS_LIB])
    assert callable(scope.load("capitalize_words"))


def test_inline_python_evaluation(benchmark, context):
    """The paper's InlinePython path: native Python evaluation of the same expression."""
    evaluator = InlinePythonEvaluator(expression_lib=PY_LIB)
    result = benchmark(evaluator.evaluate,
                       'f"{capitalize_words($(inputs.message))}"', context)
    assert result.split(" ")[0][0].isupper()
