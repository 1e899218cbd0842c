"""Tests for parameter references and the expression evaluator."""

from __future__ import annotations

import pytest

from repro.cwl.errors import ExpressionError
from repro.cwl.expressions import (
    CompiledEvaluator,
    ExpressionEvaluator,
    needs_expression_evaluation,
)
from repro.cwl.expressions.paramrefs import (
    find_expressions,
    is_simple_parameter_reference,
    resolve_parameter_reference,
)


CONTEXT = {
    "inputs": {
        "message": "hello world",
        "size": 1024,
        "flag": True,
        "image": {"class": "File", "basename": "photo.png", "path": "/data/photo.png",
                  "nameroot": "photo"},
        "values": [10, 20, 30],
    },
    "runtime": {"cores": 4, "outdir": "/out"},
    "self": None,
}


# ----------------------------------------------------------------- reference scanning


def test_find_expressions_paren_and_brace():
    found = find_expressions("x $(inputs.a) y ${ return 1; } z")
    assert [f.kind for f in found] == ["paren", "brace"]
    assert found[0].body == "inputs.a"
    assert "return 1;" in found[1].body


def test_find_expressions_nested_parens_and_strings():
    found = find_expressions("$(inputs.file.basename.split('.')[0])")
    assert len(found) == 1
    assert found[0].body == "inputs.file.basename.split('.')[0]"


def test_find_expressions_escaped_dollar_ignored():
    assert find_expressions(r"costs \$(5)") == []


def test_find_expressions_unterminated_raises():
    with pytest.raises(ExpressionError):
        find_expressions("$(inputs.a")


def test_is_simple_parameter_reference():
    assert is_simple_parameter_reference("inputs.message")
    assert is_simple_parameter_reference("inputs.image.basename")
    assert is_simple_parameter_reference("inputs.values[0]")
    assert is_simple_parameter_reference("inputs['message']")
    assert not is_simple_parameter_reference("inputs.message.split(' ')")
    assert not is_simple_parameter_reference("1 + 2")


@pytest.mark.parametrize("body,expected", [
    ("inputs.message", "hello world"),
    ("inputs.size", 1024),
    ("inputs.flag", True),
    ("inputs.image.basename", "photo.png"),
    ("inputs.values[1]", 20),
    ("inputs['image']['nameroot']", "photo"),
    ("runtime.cores", 4),
    ("inputs.message.length", 11),
    ("inputs.missing", None),
    ("inputs.image.missing_attribute", None),
])
def test_resolve_parameter_reference(body, expected):
    assert resolve_parameter_reference(body, CONTEXT) == expected


def test_resolve_unknown_root_raises():
    with pytest.raises(ExpressionError):
        resolve_parameter_reference("environment.PATH", CONTEXT)


# ----------------------------------------------------------------------- evaluator


def test_whole_string_reference_preserves_type():
    evaluator = ExpressionEvaluator()
    assert evaluator.evaluate("$(inputs.size)", CONTEXT) == 1024
    assert evaluator.evaluate("$(inputs.flag)", CONTEXT) is True
    assert evaluator.evaluate("$(inputs.values)", CONTEXT) == [10, 20, 30]


def test_interpolation_stringifies():
    evaluator = ExpressionEvaluator()
    result = evaluator.evaluate("--size=$(inputs.size) --cores=$(runtime.cores)", CONTEXT)
    assert result == "--size=1024 --cores=4"


def test_interpolation_of_booleans_and_null():
    evaluator = ExpressionEvaluator()
    assert evaluator.evaluate("flag=$(inputs.flag) missing=$(inputs.missing)", CONTEXT) == \
        "flag=true missing=null"


def test_plain_strings_pass_through():
    evaluator = ExpressionEvaluator()
    assert evaluator.evaluate("no expressions here", CONTEXT) == "no expressions here"
    assert evaluator.evaluate(42, CONTEXT) == 42
    assert evaluator.evaluate(None, CONTEXT) is None


def test_js_expression_inside_reference():
    evaluator = ExpressionEvaluator()
    assert evaluator.evaluate("$(inputs.message.toUpperCase())", CONTEXT) == "HELLO WORLD"
    assert evaluator.evaluate("$(inputs.size / 2)", CONTEXT) == 512


def test_brace_function_body():
    evaluator = ExpressionEvaluator()
    assert evaluator.evaluate("${ return inputs.values.length * 2; }", CONTEXT) == 6


def test_expression_lib_available():
    evaluator = ExpressionEvaluator(expression_lib=["function triple(x) { return x * 3; }"])
    assert evaluator.evaluate("$(triple(inputs.size))", CONTEXT) == 3072


def test_engine_build_counting_cached_vs_uncached():
    """The uncached pipeline builds one library scope per JavaScript expression
    evaluated (none for parameter references and plain strings); the compiled
    pipeline's one scope is shared."""
    uncached = ExpressionEvaluator()
    for _ in range(3):
        uncached.evaluate("$(inputs.size + 1)", CONTEXT)
    assert uncached.engine_builds == 3
    uncached.evaluate("$(inputs.size + 1) and ${ return 2; }", CONTEXT)
    assert uncached.engine_builds == 5
    uncached.evaluate("$(inputs.size) plain", CONTEXT)
    uncached.evaluate("plain", CONTEXT)
    assert uncached.engine_builds == 5

    cached = CompiledEvaluator()
    for _ in range(3):
        cached.evaluate("$(inputs.size + 1)", CONTEXT)
    assert cached.engine_builds == 1


def test_evaluate_structure_recurses():
    evaluator = ExpressionEvaluator()
    structure = {"args": ["$(inputs.size)", {"nested": "$(runtime.cores)"}], "plain": 1}
    assert evaluator.evaluate_structure(structure, CONTEXT) == \
        {"args": [1024, {"nested": 4}], "plain": 1}


def test_needs_expression_evaluation():
    assert needs_expression_evaluation("$(inputs.x)")
    assert needs_expression_evaluation("prefix ${ return 1; }")
    assert not needs_expression_evaluation("plain")
    assert not needs_expression_evaluation(5)
