"""The expression compiler, and the compiled pipeline that keeps what it compiles.

There is one compiler, and one expression pipeline per engine; the two
evaluators differ only in what they keep:

* :class:`CompiledExpression` — one ``$(...)``/``${...}`` occurrence, scanned
  and classified into a literal-free fast path: a *simple parameter
  reference* (pre-tokenized path walk, no JS at all) or a JS AST compiled
  into a Python function (see :mod:`repro.cwl.expressions.jsengine.closures`).
* :class:`CompiledTemplate` — a whole CWL string: plain literal, whole-string
  single expression (native value preserved) or an interpolation with
  precompiled segments and pre-unescaped literal pieces.
* :class:`~repro.cwl.expressions.evaluator.ExpressionEvaluator` — the
  reference runner's pipeline — builds a throw-away template and a fresh
  :class:`~repro.cwl.expressions.jsengine.closures.LibraryScope` for every
  evaluation: the cwltool cost model the paper's Figure 2 measures.
* :class:`CompiledEvaluator` — the pipeline of ``toil``, ``parsl`` and
  ``parsl-workflow`` (same ``evaluate`` / ``evaluate_structure`` contract and
  error messages) — compiles each distinct string once into its own memo and
  evaluates against the one shared scope of its library content, so the
  code object of each string and of the ``expressionLib`` is built once.
  :func:`precompile_process` gives each process object one such evaluator.

Which of the two a job gets is the runner's decision
(:meth:`repro.cwl.runners.base.BaseRunner.evaluator_for`), never a run option.

This module does not import the JavaScript engine
(:mod:`repro.cwl.expressions.jsengine`): a process whose expressions are all
parameter references never loads it.  Loading a document that declares
``InlineJavascriptRequirement`` imports it (:mod:`repro.cwl.loader`), so
that a run imports nothing; otherwise the first JavaScript expression
compiled does.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cwl.errors import ExpressionError
from repro.cwl.expressions.paramrefs import (
    FoundExpression,
    is_simple_parameter_reference,
    resolve_path_tokens,
    scan_expressions,
    tokenize_path,
)

if TYPE_CHECKING:
    from repro.cwl.expressions.jsengine.closures import CompiledNode, LibraryScope

__all__ = [
    "CompiledExpression",
    "CompiledTemplate",
    "CompiledEvaluator",
    "expression_lib_of",
    "precompile_process",
    "compile_cache_stats",
]


def _stringify(value: Any) -> str:
    """Interpolate an evaluated value back into a string, CWL-style."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: What a template is evaluated with: a call that gives the
#: :class:`~repro.cwl.expressions.jsengine.closures.LibraryScope` to run
#: JavaScript in.  Only a JavaScript expression calls it, so a template of
#: parameter references never builds a scope or imports the engine.
ScopeSource = Callable[[], "LibraryScope"]


class CompiledExpression:
    """One expression occurrence, classified and compiled at construction.

    ``kind`` is one of:

    * ``"param"`` — a simple parameter reference; evaluation walks a
      pre-tokenized path, never touching the JavaScript engine,
    * ``"js"`` — a ``$(...)`` JavaScript expression, compiled to a Python function,
    * ``"body"`` — a ``${...}`` function body, compiled to a Python function.

    The first ``"js"`` or ``"body"`` occurrence a process compiles imports the
    JavaScript engine, unless loading a document that declares
    ``InlineJavascriptRequirement`` already did (:mod:`repro.cwl.loader`).
    """

    __slots__ = ("kind", "body", "_tokens", "_compiled")

    def __init__(self, found: FoundExpression, js_enabled: bool = True) -> None:
        self.body = found.body
        self._tokens: Optional[Tuple[Any, ...]] = None
        self._compiled: Optional["CompiledNode"] = None
        if found.kind == "paren":
            if is_simple_parameter_reference(found.body):
                self.kind = "param"
                self._tokens = tokenize_path(found.body)
                return
            if not js_enabled:
                raise ExpressionError(
                    f"expression $({found.body}) requires InlineJavascriptRequirement, "
                    "which this document does not declare"
                )
            from repro.cwl.expressions.jsengine.closures import compile_expression_ast
            from repro.cwl.expressions.jsengine.parser import parse_expression

            self.kind = "js"
            self._compiled = compile_expression_ast(parse_expression(found.body))
            return
        if not js_enabled:
            raise ExpressionError(
                "${...} expressions require InlineJavascriptRequirement, "
                "which this document does not declare"
            )
        from repro.cwl.expressions.jsengine.closures import compile_program_ast
        from repro.cwl.expressions.jsengine.parser import parse_program

        self.kind = "body"
        self._compiled = compile_program_ast(parse_program(found.body))

    def evaluate(self, context: Dict[str, Any], scope: ScopeSource) -> Any:
        if self.kind == "param":
            return resolve_path_tokens(self._tokens, context, source=self.body)
        if self.kind == "js":
            return scope().evaluate(self._compiled, context)
        return scope().run_body(self._compiled, context)


class CompiledTemplate:
    """A whole CWL string compiled once.

    ``kind`` is ``"plain"`` (no expressions; the unescaped literal is
    precomputed), ``"single"`` (the string is exactly one expression, whose
    native value is returned) or ``"interpolate"`` (alternating pre-unescaped
    literal pieces and :class:`CompiledExpression` segments).
    """

    __slots__ = ("source", "kind", "literal", "single", "segments")

    def __init__(self, source: str, js_enabled: bool = True) -> None:
        self.source = source
        self.literal: Optional[str] = None
        self.single: Optional[CompiledExpression] = None
        self.segments: List[Union[str, CompiledExpression]] = []
        expressions = scan_expressions(source)
        if not expressions:
            self.kind = "plain"
            self.literal = source.replace("\\$", "$")
            return
        only = expressions[0]
        if len(expressions) == 1 and only.start == 0 and only.end == len(source.strip()) \
                and source.strip() == source:
            self.kind = "single"
            self.single = CompiledExpression(only, js_enabled)
            return
        self.kind = "interpolate"
        cursor = 0
        for expression in expressions:
            self.segments.append(source[cursor:expression.start].replace("\\$", "$"))
            self.segments.append(CompiledExpression(expression, js_enabled))
            cursor = expression.end
        self.segments.append(source[cursor:].replace("\\$", "$"))

    def evaluate(self, context: Dict[str, Any], scope: ScopeSource) -> Any:
        if self.kind == "plain":
            return self.literal
        if self.kind == "single":
            return self.single.evaluate(context, scope)
        pieces: List[str] = []
        for segment in self.segments:
            if isinstance(segment, str):
                pieces.append(segment)
            else:
                pieces.append(_stringify(segment.evaluate(context, scope)))
        return "".join(pieces)


# ------------------------------------------------------------------ evaluator

#: Memo hits and misses summed over every :class:`CompiledEvaluator`.
_MEMO_STATS = {"hits": 0, "misses": 0}
_MEMO_STATS_LOCK = threading.Lock()


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the compiled evaluators' template memos."""
    with _MEMO_STATS_LOCK:
        return dict(_MEMO_STATS)


class CompiledEvaluator:
    """Drop-in :class:`ExpressionEvaluator` replacement that keeps what it compiles.

    Same public contract — ``evaluate`` / ``evaluate_structure`` with identical
    value semantics and error messages — but every string is compiled once
    into this evaluator's memo and evaluated via the shared
    :class:`~repro.cwl.expressions.jsengine.closures.LibraryScope`, so neither
    the standard library nor the ``expressionLib`` is ever re-parsed.  Only a
    document's own strings reach an evaluator, so the document bounds the
    memo.  Evaluators with byte-identical libraries share one scope, found or
    built on the first access to :attr:`scope` (the first JavaScript
    evaluation): an evaluator that only meets parameter references never
    builds one.

    Thread-safe: the scope binds each evaluation's context in a per-thread
    activation frame, so parallel scatter jobs can share one evaluator.
    """

    def __init__(self, expression_lib: Optional[Sequence[str]] = None,
                 js_enabled: bool = True) -> None:
        self.expression_lib = list(expression_lib or [])
        self.js_enabled = js_enabled
        self._scope: Optional["LibraryScope"] = None
        #: Interface parity with ``ExpressionEvaluator``: the library scope is
        #: built (at most) once per library content, not per evaluation.
        self.engine_builds = 1
        self._templates: Dict[str, CompiledTemplate] = {}

    @property
    def scope(self) -> "LibraryScope":
        """The shared library scope of this evaluator's ``expressionLib``."""
        return self._shared_scope()

    def _shared_scope(self) -> "LibraryScope":
        scope = self._scope
        if scope is None:
            from repro.cwl.expressions.jsengine.closures import shared_library_scope

            # Racing first uses get the one scope the process-wide cache keeps.
            scope = self._scope = shared_library_scope(self.expression_lib)
        return scope

    def evaluate(self, value: Any, context: Dict[str, Any]) -> Any:
        """Evaluate ``value`` against ``context`` (non-strings pass through)."""
        if not isinstance(value, str):
            return value
        template = self._templates.get(value)
        outcome = "hits"
        if template is None:
            # Two threads may both compile a new string; either result serves.
            outcome = "misses"
            template = self._templates[value] = CompiledTemplate(value, self.js_enabled)
        with _MEMO_STATS_LOCK:
            _MEMO_STATS[outcome] += 1
        return template.evaluate(context, self._shared_scope)

    def evaluate_structure(self, value: Any, context: Dict[str, Any]) -> Any:
        """Recursively evaluate expressions inside lists and dictionaries."""
        if isinstance(value, str):
            return self.evaluate(value, context)
        if isinstance(value, list):
            return [self.evaluate_structure(item, context) for item in value]
        if isinstance(value, dict):
            return {key: self.evaluate_structure(item, context) for key, item in value.items()}
        return value


def expression_lib_of(process: Any) -> List[str]:
    """The ``expressionLib`` of ``process``'s InlineJavascriptRequirement, if any."""
    js_req = process.get_requirement("InlineJavascriptRequirement")
    return list(js_req.get("expressionLib", [])) if js_req else []


def precompile_process(process: Any) -> CompiledEvaluator:
    """The process's own :class:`CompiledEvaluator`, made on first use.

    Kept on the process object (``process.compiled``), so every job of every
    run of that object — each shard of a scatter, each step of a workflow
    that names it — shares one memo and one library scope.  Strings compile
    the first time they are evaluated.
    """
    evaluator = process.compiled
    if evaluator is None:
        # Racing first uses may each make one; any of them evaluates alike.
        evaluator = process.compiled = CompiledEvaluator(expression_lib_of(process))
    return evaluator
