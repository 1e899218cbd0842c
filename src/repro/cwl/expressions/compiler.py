"""The expression compiler, and the compiled pipeline that keeps what it compiles.

There is one compiler.  The two evaluators differ in what they keep:

* :class:`CompiledExpression` — one ``$(...)``/``${...}`` occurrence, scanned
  and classified into a literal-free fast path: a *simple parameter
  reference* (pre-tokenized path walk, no JS at all) or a closure-compiled JS
  AST (see :mod:`repro.cwl.expressions.jsengine.closures`).
* :class:`CompiledTemplate` — a whole CWL string: plain literal, whole-string
  single expression (native value preserved) or an interpolation with
  precompiled segments and pre-unescaped literal pieces.
* :class:`~repro.cwl.expressions.evaluator.ExpressionEvaluator` (the uncached
  pipeline, the reference runner's default) builds a throw-away template and a
  fresh :class:`~repro.cwl.expressions.jsengine.closures.LibraryScope` for
  every evaluation — the cwltool cost model the paper's Figure 2 measures —
  and touches none of the caches below.
* :class:`CompiledEvaluator` (the default of ``toil``, ``parsl``,
  ``parsl-workflow``; same ``evaluate`` / ``evaluate_structure`` contract and
  error messages) compiles each distinct string once through a process-wide
  bounded LRU keyed by ``(source, js_enabled, library fingerprint)`` — a
  changed ``expressionLib`` misses and recompiles — and evaluates against one
  shared scope per library content.
* :func:`precompile_process` — the validate-time pass that walks a loaded
  document (arguments, input/output bindings, redirections, step ``when`` /
  ``valueFrom``, embedded sub-processes) and pins every expression's compiled
  template, so the first job of a scatter pays no parse cost either.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cwl.errors import ExpressionError, JavaScriptError
from repro.cwl.expressions.jsengine.closures import (
    CompiledNode,
    LibraryScope,
    compile_expression_ast,
    compile_program_ast,
    shared_library_scope,
)
from repro.cwl.expressions.jsengine.parser import parse_expression, parse_program
from repro.cwl.expressions.paramrefs import (
    FoundExpression,
    is_simple_parameter_reference,
    resolve_path_tokens,
    scan_expressions,
    tokenize_path,
)

__all__ = [
    "CompiledExpression",
    "CompiledTemplate",
    "CompiledEvaluator",
    "ProcessCompilation",
    "compile_template",
    "expression_lib_of",
    "precompile_process",
    "compile_cache_stats",
    "clear_compile_cache",
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


class CompiledExpression:
    """One expression occurrence, classified and compiled at construction.

    ``kind`` is one of:

    * ``"param"`` — a simple parameter reference; evaluation walks a
      pre-tokenized path, never touching the JavaScript engine,
    * ``"js"`` — a ``$(...)`` JavaScript expression, closure-compiled,
    * ``"body"`` — a ``${...}`` function body, closure-compiled.
    """

    __slots__ = ("kind", "body", "_tokens", "_compiled")

    def __init__(self, found: FoundExpression, js_enabled: bool = True) -> None:
        self.body = found.body
        self._tokens: Optional[Tuple[Any, ...]] = None
        self._compiled: Optional[CompiledNode] = None
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
            self.kind = "js"
            self._compiled = compile_expression_ast(parse_expression(found.body))
            return
        if not js_enabled:
            raise ExpressionError(
                "${...} expressions require InlineJavascriptRequirement, "
                "which this document does not declare"
            )
        self.kind = "body"
        self._compiled = compile_program_ast(parse_program(found.body))

    def evaluate(self, context: Dict[str, Any], scope: LibraryScope) -> Any:
        if self.kind == "param":
            return resolve_path_tokens(self._tokens, context, source=self.body)
        if self.kind == "js":
            return scope.evaluate(self._compiled, context)
        return scope.run_body(self._compiled, context)


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

    def evaluate(self, context: Dict[str, Any], scope: LibraryScope) -> Any:
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


# ------------------------------------------------------------------ LRU cache


class _CompileCache:
    """Thread-safe bounded LRU of compiled templates, with hit/miss counters."""

    def __init__(self, maxsize: int = 2048) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, bool, str], CompiledTemplate]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_compile(self, source: str, js_enabled: bool, fingerprint: str) -> CompiledTemplate:
        key = (source, js_enabled, fingerprint)
        with self._lock:
            template = self._entries.get(key)
            if template is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return template
            self.misses += 1
        # Compile outside the lock; duplicate compilations are harmless.
        template = CompiledTemplate(source, js_enabled)
        with self._lock:
            self._entries[key] = template
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return template

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._entries), "maxsize": self.maxsize}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_TEMPLATE_CACHE = _CompileCache()


def compile_template(source: str, js_enabled: bool = True,
                     fingerprint: str = "") -> CompiledTemplate:
    """Compile ``source`` through the process-wide cache.

    ``fingerprint`` is the library content hash; a changed ``expressionLib``
    therefore misses the cache and recompiles against the new library.
    """
    return _TEMPLATE_CACHE.get_or_compile(source, js_enabled, fingerprint)


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the global template cache."""
    return _TEMPLATE_CACHE.stats()


def clear_compile_cache() -> None:
    """Empty the global template cache (tests and benchmarks)."""
    _TEMPLATE_CACHE.clear()


# ------------------------------------------------------------------ evaluator


class CompiledEvaluator:
    """Drop-in :class:`ExpressionEvaluator` replacement that keeps what it compiles.

    Same public contract — ``evaluate`` / ``evaluate_structure`` with identical
    value semantics and error messages — but every string is compiled once
    (through the global LRU) and evaluated via the shared
    :class:`LibraryScope`, so neither the standard library nor the
    ``expressionLib`` is ever re-parsed.  Instances are cheap: evaluators with
    byte-identical libraries share one scope.

    Thread-safe: the scope binds each evaluation's context in a per-thread
    activation frame, so parallel scatter jobs can share one evaluator.
    """

    def __init__(self, expression_lib: Optional[Sequence[str]] = None,
                 js_enabled: bool = True,
                 scope: Optional[LibraryScope] = None) -> None:
        self.expression_lib = list(expression_lib or [])
        self.js_enabled = js_enabled
        self.scope = scope if scope is not None else shared_library_scope(self.expression_lib)
        #: Interface parity with ``ExpressionEvaluator``: the library scope is
        #: built (at most) once per library content, not per evaluation.
        self.engine_builds = 1
        #: Templates pinned by :meth:`compile` — immune to LRU eviction.
        self._pinned: Dict[str, CompiledTemplate] = {}

    # ------------------------------------------------------------------ public

    def compile(self, source: str) -> CompiledTemplate:
        """Compile ``source`` and pin the template for this evaluator's lifetime."""
        template = self._pinned.get(source)
        if template is None:
            template = compile_template(source, self.js_enabled, self.scope.fingerprint)
            self._pinned[source] = template
        return template

    def evaluate(self, value: Any, context: Dict[str, Any]) -> Any:
        """Evaluate ``value`` against ``context`` (non-strings pass through)."""
        if not isinstance(value, str):
            return value
        template = self._pinned.get(value)
        if template is None:
            template = compile_template(value, self.js_enabled, self.scope.fingerprint)
        return template.evaluate(context, self.scope)

    def evaluate_structure(self, value: Any, context: Dict[str, Any]) -> Any:
        """Recursively evaluate expressions inside lists and dictionaries."""
        if isinstance(value, str):
            return self.evaluate(value, context)
        if isinstance(value, list):
            return [self.evaluate_structure(item, context) for item in value]
        if isinstance(value, dict):
            return {key: self.evaluate_structure(item, context) for key, item in value.items()}
        return value


# --------------------------------------------------------- precompiled process


class ProcessCompilation:
    """The result of :func:`precompile_process`, attached to the process."""

    __slots__ = ("evaluator", "fingerprint", "expression_count", "skipped")

    def __init__(self, evaluator: CompiledEvaluator) -> None:
        self.evaluator = evaluator
        self.fingerprint = evaluator.scope.fingerprint
        #: Number of expression-bearing strings successfully precompiled.
        self.expression_count = 0
        #: Strings that failed to compile (left for evaluation-time handling —
        #: e.g. InlinePython f-string arguments that are not JavaScript).
        self.skipped = 0


def expression_lib_of(process: Any) -> List[str]:
    """The ``expressionLib`` of ``process``'s InlineJavascriptRequirement, if any."""
    js_req = process.get_requirement("InlineJavascriptRequirement")
    return list(js_req.get("expressionLib", [])) if js_req else []


def iter_expression_sources(process: Any) -> Iterator[str]:
    """Yield every string in ``process`` that may contain expressions."""
    from repro.cwl.schema import CommandLineTool, ExpressionTool, Workflow

    if isinstance(process, CommandLineTool):
        for argument in process.arguments:
            if isinstance(argument, str):
                yield argument
            elif argument.value_from is not None:
                yield argument.value_from
        for param in process.inputs:
            binding = param.input_binding
            if binding is None:
                continue
            if isinstance(binding.position, str):
                yield binding.position
            if binding.value_from is not None:
                yield binding.value_from
        for redirection in (process.stdin, process.stdout, process.stderr):
            if redirection:
                yield redirection
        for param in process.outputs:
            binding = param.output_binding
            if binding is None:
                continue
            if binding.glob is not None:
                patterns = binding.glob if isinstance(binding.glob, list) else [binding.glob]
                for pattern in patterns:
                    if isinstance(pattern, str):
                        yield pattern
            if binding.output_eval is not None:
                yield binding.output_eval
        env_req = process.get_requirement("EnvVarRequirement")
        if env_req:
            env_def = env_req.get("envDef", {})
            if isinstance(env_def, list):
                for entry in env_def:
                    if isinstance(entry.get("envValue"), str):
                        yield entry["envValue"]
            elif isinstance(env_def, dict):
                for value in env_def.values():
                    if isinstance(value, str):
                        yield value
    elif isinstance(process, ExpressionTool):
        yield process.expression
    elif isinstance(process, Workflow):
        for step in process.steps:
            if step.when is not None:
                yield step.when
            for step_input in step.in_:
                if step_input.value_from is not None:
                    yield step_input.value_from


def precompile_process(process: Any, recurse: bool = True) -> ProcessCompilation:
    """Walk a loaded document and compile every expression it contains.

    Runs at validate time; the compilation is memoized on the process object
    (``process.compiled``), so repeated runs — and every job of a scatter —
    reuse the same pinned templates and shared library scope.  Workflow steps
    recurse into their embedded sub-processes, each compiled against its own
    ``expressionLib``.
    """
    from repro.cwl.schema import Workflow

    existing = getattr(process, "compiled", None)
    if isinstance(existing, ProcessCompilation):
        return existing

    compilation = ProcessCompilation(CompiledEvaluator(
        expression_lib=expression_lib_of(process), js_enabled=True))
    for source in iter_expression_sources(process):
        try:
            compilation.evaluator.compile(source)
            compilation.expression_count += 1
        except (ExpressionError, JavaScriptError):
            compilation.skipped += 1
    process.compiled = compilation

    if recurse and isinstance(process, Workflow):
        from repro.cwl.schema import Process

        for step in process.steps:
            embedded = step.embedded_process
            if embedded is None and isinstance(step.run, Process):
                embedded = step.run
            if embedded is not None:
                precompile_process(embedded, recurse=recurse)
    return compilation
