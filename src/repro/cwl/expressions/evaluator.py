"""The expression evaluator used by command-line building and output collection.

``ExpressionEvaluator.evaluate`` takes a string that may contain parameter
references and/or JavaScript expressions, together with the CWL evaluation
context (``inputs``, ``self``, ``runtime``), and returns the evaluated value:

* when the whole string is exactly one expression, the expression's native
  value is returned (so ``$(inputs.size)`` stays an int),
* otherwise each embedded expression is evaluated and string-interpolated.

This is the **reference runner's pipeline**, the cost model of cwltool (which
hands every evaluation batch to a new node.js process) and what the paper's
Figure 2 measures: every call tokenizes, parses and compiles its JavaScript
again (one Python ``compile()``), and every JavaScript expression runs in a
newly built :class:`~repro.cwl.expressions.jsengine.closures.LibraryScope` —
standard library rebuilt, whole ``expressionLib`` parsed, compiled and run
again.  Nothing is kept between calls: no code object is memoized.  A string
of parameter references builds no scope, and the JavaScript engine is
imported by the first JavaScript expression compiled (or earlier, when a
loaded document declares ``InlineJavascriptRequirement``; see
:mod:`repro.cwl.expressions.compiler`).  (One shared shortcut: the *scanning* helpers in
:mod:`repro.cwl.expressions.paramrefs` are memoized process-wide, so a string
without expressions leaves on a cached scan.)

It is a client of the same compiler as the pipeline of every other engine
(:class:`repro.cwl.expressions.compiler.CompiledEvaluator`), which differs only
in what it keeps: each distinct string is compiled once and library scopes are
shared by content hash.  The reference runner
(:meth:`repro.cwl.runners.reference.ReferenceRunner.evaluator_for`) is the one
place that picks this class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.cwl.expressions.compiler import CompiledTemplate
from repro.cwl.expressions.paramrefs import scan_expressions

if TYPE_CHECKING:
    from repro.cwl.expressions.jsengine.closures import LibraryScope


def needs_expression_evaluation(value: Any) -> bool:
    """Whether ``value`` is a string containing at least one expression."""
    return isinstance(value, str) and bool(scan_expressions(value))


class ExpressionEvaluator:
    """Evaluate CWL parameter references and JavaScript expressions, keeping nothing."""

    def __init__(self, expression_lib: Optional[Sequence[str]] = None,
                 js_enabled: bool = True) -> None:
        self.expression_lib = list(expression_lib or [])
        self.js_enabled = js_enabled
        #: Number of library scopes built: one per JavaScript expression evaluated.
        self.engine_builds = 0

    def evaluate(self, value: Any, context: Dict[str, Any]) -> Any:
        """Evaluate ``value`` against ``context``.

        Non-string values are returned unchanged; strings are scanned for
        expressions.  ``context`` should provide ``inputs`` and usually
        ``runtime`` and ``self``.
        """
        if not isinstance(value, str):
            return value
        if not scan_expressions(value):
            return value.replace("\\$", "$")
        return CompiledTemplate(value, self.js_enabled).evaluate(context, self._fresh_scope)

    def _fresh_scope(self) -> "LibraryScope":
        """A newly built library scope, for one JavaScript expression."""
        from repro.cwl.expressions.jsengine.closures import LibraryScope

        self.engine_builds += 1
        return LibraryScope(self.expression_lib)

    def evaluate_structure(self, value: Any, context: Dict[str, Any]) -> Any:
        """Recursively evaluate expressions inside lists and dictionaries."""
        if isinstance(value, str):
            return self.evaluate(value, context)
        if isinstance(value, list):
            return [self.evaluate_structure(item, context) for item in value]
        if isinstance(value, dict):
            return {key: self.evaluate_structure(item, context) for key, item in value.items()}
        return value

