"""CWL expression support.

CWL documents embed two kinds of dynamic content:

* **parameter references** — ``$(inputs.name)``, ``$(runtime.outdir)``,
  ``$(self.basename)`` — simple attribute/index paths into the evaluation
  context, and
* **expressions** — arbitrary JavaScript, either inline ``$( ... )`` expressions
  or ``${ ... }`` function bodies, enabled by ``InlineJavascriptRequirement``.

Because no JavaScript runtime is available offline, :mod:`repro.cwl.expressions.jsengine`
implements the ECMAScript subset CWL documents actually use in pure Python: a
tokenizer, a parser, and one back end that compiles each AST into a Python code
object, so JavaScript runs as Python functions (real ``node`` is its test
oracle).  :mod:`repro.cwl.expressions.compiler`
finds references/expressions in strings, compiles them, evaluates them against
the CWL context (``inputs``, ``self``, ``runtime``) and performs string
interpolation, mirroring the behaviour of cwltool's expression handling.

Two evaluators are clients of that one compiler; they differ in what they keep,
and which one runs is a property of the engine:

* the :class:`ExpressionEvaluator` of the ``reference`` engine keeps nothing —
  every evaluation re-parses and re-compiles its JavaScript and runs it in a
  newly built library scope (cwltool fidelity — the Figure 2 cost model), and
* the :class:`~repro.cwl.expressions.compiler.CompiledEvaluator` of ``toil`` /
  ``parsl`` / ``parsl-workflow`` compiles each distinct string of a document
  once and shares library scopes by content hash.

Neither imports the JavaScript engine by itself.  Loading a document that
declares ``InlineJavascriptRequirement`` (anywhere, as a requirement or a
hint) imports it, before a run starts; a document that does not never loads
it, since a parameter reference is a path walk that needs no engine — unless
one of its own expressions is JavaScript after all, whose first compile then
imports the engine.
"""

from repro.cwl.expressions.compiler import (
    CompiledEvaluator,
    compile_cache_stats,
    precompile_process,
)
from repro.cwl.expressions.evaluator import ExpressionEvaluator, needs_expression_evaluation
from repro.cwl.expressions.paramrefs import (
    find_expressions,
    resolve_parameter_reference,
)

__all__ = [
    "CompiledEvaluator",
    "ExpressionEvaluator",
    "compile_cache_stats",
    "find_expressions",
    "needs_expression_evaluation",
    "precompile_process",
    "resolve_parameter_reference",
]
