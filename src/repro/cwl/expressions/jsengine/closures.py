"""The JavaScript back end: ASTs compiled once into Python closures.

This is the only code that runs JavaScript.  Nothing walks an AST at
evaluation time:

* :func:`compile_expression_ast` / :func:`compile_program_ast` translate an AST
  into nested Python closures (one callable per node) that hand straight on
  to each other.  Builtin string/array/object/number methods are dispatched
  through the value-first tables of :mod:`~repro.cwl.expressions.jsengine.values`,
  and method *calls* are fused (``obj.method(args)`` resolves and invokes in
  one step with no intermediate bound callable).
* :class:`LibraryScope` is the compiled form of an ``expressionLib``: the
  standard library is built and every library source is parsed and executed
  once per scope.  Each evaluation gets an *activation frame* — a child
  :class:`Environment` plus a per-thread context overlay at the scope root, so
  library functions see that evaluation's ``inputs``/``self``/``runtime``.

How long a scope and a compiled closure live is the caller's cost model, not
this module's: the uncached pipeline
(:class:`~repro.cwl.expressions.evaluator.ExpressionEvaluator`) compiles the
expression and builds a fresh :class:`LibraryScope` for every evaluation and
keeps neither; the compiled pipeline
(:class:`~repro.cwl.expressions.compiler.CompiledEvaluator`) compiles each
distinct string once and shares one scope per library content through
:func:`shared_library_scope`.

The two differ only where a scope is shared: an expression that *assigns* to a
name defined by the expressionLib mutates the shared scope (a fresh scope
re-runs the library next time), and library-level mutable globals keep their
values across evaluations.  CWL expression libraries define helper functions,
not mutable state, so neither arises in practice — the conformance matrix,
whose oracle is the reference runner's fresh scopes and whose other engines
share them, checks that the two agree.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import ChainMap, OrderedDict
from contextlib import contextmanager
from functools import partial
from operator import ge, gt, le, lt
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cwl.errors import JavaScriptError
from repro.cwl.expressions.jsengine import ast_nodes as ast
from repro.cwl.expressions.jsengine.parser import parse_program
from repro.cwl.expressions.jsengine.values import (
    ARRAY_METHODS,
    NUMBER_METHODS,
    OBJECT_METHODS,
    STRING_METHODS,
    _equals,
    _js_string,
    _js_truthy,
    _js_typeof,
    _maybe_int,
    _standard_library,
    _to_number,
)

__all__ = [
    "Environment",
    "JSThrownError",
    "LibraryScope",
    "compile_expression_ast",
    "compile_program_ast",
    "shared_library_scope",
    "clear_scope_cache",
]


class JSThrownError(JavaScriptError):
    """A ``throw`` statement executed inside evaluated JavaScript."""


class Environment:
    """A lexical scope chain."""

    def __init__(self, parent: Optional["Environment"] = None,
                 variables: Optional[Dict[str, Any]] = None) -> None:
        self.parent = parent
        self.variables: Dict[str, Any] = dict(variables or {})

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.variables:
                return env.variables[name]
            env = env.parent
        raise JavaScriptError(f"reference to undefined variable {name!r}")

    def declare(self, name: str, value: Any) -> None:
        self.variables[name] = value

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.variables:
                env.variables[name] = value
                return
            env = env.parent
        # Implicit global declaration (sloppy-mode JS).
        self.variables[name] = value


#: A compiled expression: callable taking the activation environment.
CompiledNode = Callable[[Environment], Any]


# --------------------------------------------------------------------- builtins

#: Builtin method tables by value type (``bool`` is an ``int`` here, as in the
#: value model, so it has the number methods).
_METHODS = {str: STRING_METHODS, list: ARRAY_METHODS, dict: OBJECT_METHODS,
            int: NUMBER_METHODS, float: NUMBER_METHODS, bool: NUMBER_METHODS}
_VALUE_TYPES = tuple(_METHODS)

#: What a builtin written in Python raises on arguments JavaScript would have
#: coerced or rejected; reported as a JavaScript failure, not an engine one.
_BUILTIN_ERRORS = (TypeError, ValueError, LookupError, ArithmeticError, AttributeError)


def _builtin_method(obj: Any, prop: str) -> Optional[Callable[..., Any]]:
    """The value-first builtin ``prop`` of ``obj``'s type, if it has one."""
    methods = _METHODS.get(type(obj))
    if methods is None:  # a subclass of a value type, or a host object
        methods = next((table for kind, table in _METHODS.items() if isinstance(obj, kind)), {})
    return methods.get(prop)


def _member_access(obj: Any, prop: str) -> Any:
    """``obj.prop``: ``length``, own property, a bound builtin, a host attribute."""
    if prop == "length" and isinstance(obj, (str, list)):
        return len(obj)
    if isinstance(obj, dict) and prop in obj:
        return obj[prop]
    if obj is None:
        raise JavaScriptError(f"cannot read property {prop!r} of null/undefined")
    method = _builtin_method(obj, prop)
    if method is not None:
        return partial(method, obj)
    return None if isinstance(obj, _VALUE_TYPES) else getattr(obj, prop, None)


def _index_access(obj: Any, index: Any) -> Any:
    if isinstance(obj, dict):
        return obj.get(index)
    if isinstance(obj, (list, str)):
        if not isinstance(index, (int, float)):
            raise JavaScriptError(f"array index must be a number, got {index!r}")
        i = int(index)
        if 0 <= i < len(obj):
            return obj[i]
        return None
    if obj is None:
        raise JavaScriptError("cannot index null/undefined")
    raise JavaScriptError(f"cannot index value of type {type(obj).__name__}")


def _builtin_failure(name: str, exc: Exception) -> JavaScriptError:
    """A Python exception that escaped the builtin ``name``, as the JavaScript
    failure it stands for (so every engine reports ``expressionError``)."""
    return JavaScriptError(f"{name}() failed: {type(exc).__name__}: {exc}")


def _call_value(callee: Any, args: List[Any], name: str) -> Any:
    if callee is None:
        raise JavaScriptError(f"attempted to call null/undefined ({name})")
    if not callable(callee):
        raise JavaScriptError(f"value of type {type(callee).__name__} is not callable ({name})")
    try:
        return callee(*args)
    except _BUILTIN_ERRORS as exc:
        raise _builtin_failure(name, exc) from exc


def _call_method(obj: Any, prop: str, args: List[Any]) -> Any:
    """Fused ``obj.prop(args)``: direct table dispatch, no bound-callable alloc."""
    methods = _METHODS.get(type(obj))
    if methods is not None:
        method = methods.get(prop)
        if method is not None and not (methods is OBJECT_METHODS and prop in obj):
            try:
                return method(obj, *args)
            except _BUILTIN_ERRORS as exc:
                raise _builtin_failure(prop, exc) from exc
    return _call_value(_member_access(obj, prop), args, prop)


# ----------------------------------------------------------------- binary ops
#
# Value-level operator functions (strict evaluation); `&&` / `||` get their own
# lazy closures in the compiler.


def _bin_add(left: Any, right: Any) -> Any:
    if type(left) is str and type(right) is str:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        return _js_string(left) + _js_string(right)
    if isinstance(left, list) and isinstance(right, list):
        return left + right
    return _maybe_int(_to_number(left) + _to_number(right))


def _bin_sub(left: Any, right: Any) -> Any:
    return _maybe_int(_to_number(left) - _to_number(right))


def _bin_mul(left: Any, right: Any) -> Any:
    return _maybe_int(_to_number(left) * _to_number(right))


def _bin_div(left: Any, right: Any) -> Any:
    denominator = _to_number(right)
    if denominator == 0:
        numerator = _to_number(left)
        return float("inf") if numerator > 0 else float("-inf") if numerator < 0 else float("nan")
    return _maybe_int(_to_number(left) / denominator)


def _bin_mod(left: Any, right: Any) -> Any:
    denominator = _to_number(right)
    if denominator == 0:
        return float("nan")
    return _maybe_int(math.fmod(_to_number(left), denominator))


def _bin_in(left: Any, right: Any) -> Any:
    if isinstance(right, dict):
        return left in right
    if isinstance(right, list):
        return isinstance(left, int) and 0 <= left < len(right)
    raise JavaScriptError("'in' requires an object or array on the right")


def _compare(ordering: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    def comparator(left: Any, right: Any) -> bool:
        if not (isinstance(left, str) and isinstance(right, str)):
            left, right = _to_number(left), _to_number(right)
        return ordering(left, right)

    return comparator


_BINARY_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _bin_add,
    "-": _bin_sub,
    "*": _bin_mul,
    "/": _bin_div,
    "%": _bin_mod,
    "in": _bin_in,
    "==": lambda l, r: _equals(l, r, strict=False),
    "===": lambda l, r: _equals(l, r, strict=True),
    "!=": lambda l, r: not _equals(l, r, strict=False),
    "!==": lambda l, r: not _equals(l, r, strict=True),
    "<": _compare(lt),
    ">": _compare(gt),
    "<=": _compare(le),
    ">=": _compare(ge),
}


# --------------------------------------------------------------- the compiler
#
# Compiled statements communicate control flow through sentinel return values
# instead of exceptions: ``None`` falls through, ``_BREAK`` / ``_CONTINUE``
# unwind to the innermost loop, and a 1-tuple ``(value,)`` carries a
# ``return`` — an order of magnitude cheaper than raising an exception on
# every function call in a hot ``map`` body.

_BREAK = object()
_CONTINUE = object()


class CompiledFunction:
    """A user-defined function whose body was closure-compiled once."""

    __slots__ = ("params", "body", "expression_body", "closure", "needs_arguments")

    def __init__(self, params: Sequence[str], body: Optional[CompiledNode],
                 expression_body: Optional[CompiledNode], closure: Environment,
                 needs_arguments: bool = True) -> None:
        self.params = params
        self.body = body
        self.expression_body = expression_body
        self.closure = closure
        self.needs_arguments = needs_arguments

    def __call__(self, *args: Any) -> Any:
        params = self.params
        if len(args) == len(params):
            variables = dict(zip(params, args))
        else:
            variables = {param: (args[index] if index < len(args) else None)
                         for index, param in enumerate(params)}
        if self.needs_arguments:
            variables["arguments"] = list(args)
        # Bypass Environment.__init__ (it would defensively copy the dict).
        local = Environment.__new__(Environment)
        local.parent = self.closure
        local.variables = variables
        if self.expression_body is not None:
            return self.expression_body(local)
        result = self.body(local)  # type: ignore[misc]
        if type(result) is tuple:
            return result[0]
        return None


def _references_arguments(node: Any) -> bool:
    """Whether an AST subtree mentions the ``arguments`` identifier anywhere."""
    if isinstance(node, ast.Identifier):
        return node.name == "arguments"
    if isinstance(node, ast.Node):
        for value in vars(node).values():
            if _references_arguments(value):
                return True
        return False
    if isinstance(node, (list, tuple)):
        return any(_references_arguments(item) for item in node)
    return False


def compile_expression_ast(node: ast.Node) -> CompiledNode:
    """Compile one expression AST into a closure taking the environment."""
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda env: value
    if isinstance(node, ast.Identifier):
        name = node.name
        return lambda env: env.lookup(name)
    if isinstance(node, ast.ArrayLiteral):
        elements = [compile_expression_ast(el) for el in node.elements]
        return lambda env: [el(env) for el in elements]
    if isinstance(node, ast.ObjectLiteral):
        entries = [(key, compile_expression_ast(value)) for key, value in node.entries]
        return lambda env: {key: value(env) for key, value in entries}
    if isinstance(node, ast.UnaryOp):
        return _compile_unary(node)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node)
    if isinstance(node, ast.Conditional):
        test = compile_expression_ast(node.test)
        consequent = compile_expression_ast(node.consequent)
        alternate = compile_expression_ast(node.alternate)
        return lambda env: consequent(env) if _js_truthy(test(env)) else alternate(env)
    if isinstance(node, ast.Member):
        obj = compile_expression_ast(node.obj)
        prop = node.prop
        return lambda env: _member_access(obj(env), prop)
    if isinstance(node, ast.Index):
        obj = compile_expression_ast(node.obj)
        index = compile_expression_ast(node.index)
        return lambda env: _index_access(obj(env), index(env))
    if isinstance(node, ast.Call):
        return _compile_call(node)
    if isinstance(node, ast.FunctionExpression):
        params = list(node.params)
        if node.expression_body is not None:
            expression_body = compile_expression_ast(node.expression_body)
            needs_args = _references_arguments(node.expression_body)
            return lambda env: CompiledFunction(params, None, expression_body, env, needs_args)
        body = compile_statements(node.body)
        needs_args = _references_arguments(node.body)
        return lambda env: CompiledFunction(params, body, None, env, needs_args)
    if isinstance(node, ast.Assignment):
        return _compile_assignment(node)
    if isinstance(node, ast.UpdateExpression):
        name = node.target.name
        delta = 1 if node.operator == "++" else -1
        prefix = node.prefix

        def update(env: Environment) -> Any:
            current = _to_number(env.lookup(name))
            updated = current + delta
            env.assign(name, _maybe_int(updated))
            return _maybe_int(updated if prefix else current)

        return update
    raise JavaScriptError(f"cannot compile AST node {type(node).__name__}")


def _compile_unary(node: ast.UnaryOp) -> CompiledNode:
    operand = compile_expression_ast(node.operand)
    operator = node.operator
    if operator == "typeof":
        def type_of(env: Environment) -> str:
            try:
                value = operand(env)
            except JavaScriptError:
                return "undefined"
            return _js_typeof(value)

        return type_of
    if operator == "!":
        return lambda env: not _js_truthy(operand(env))
    if operator == "-":
        return lambda env: _maybe_int(-_to_number(operand(env)))
    if operator == "+":
        return lambda env: _maybe_int(_to_number(operand(env)))
    raise JavaScriptError(f"unsupported unary operator {operator!r}")


def _compile_binary(node: ast.BinaryOp) -> CompiledNode:
    operator = node.operator
    left = compile_expression_ast(node.left)
    right = compile_expression_ast(node.right)
    if operator == "&&":
        def logical_and(env: Environment) -> Any:
            value = left(env)
            return right(env) if _js_truthy(value) else value

        return logical_and
    if operator == "||":
        def logical_or(env: Environment) -> Any:
            value = left(env)
            return value if _js_truthy(value) else right(env)

        return logical_or
    func = _BINARY_FUNCS.get(operator)
    if func is None:
        raise JavaScriptError(f"unsupported binary operator {operator!r}")
    return lambda env: func(left(env), right(env))


def _compile_call(node: ast.Call) -> CompiledNode:
    args = [compile_expression_ast(arg) for arg in node.args]
    if isinstance(node.callee, ast.Member):
        obj = compile_expression_ast(node.callee.obj)
        prop = node.callee.prop

        def fused_method_call(env: Environment) -> Any:
            # Arguments are evaluated before the callee.
            arg_values = [arg(env) for arg in args]
            return _call_method(obj(env), prop, arg_values)

        return fused_method_call
    callee = compile_expression_ast(node.callee)
    name = node.callee.name if isinstance(node.callee, ast.Identifier) else "function"

    def call(env: Environment) -> Any:
        arg_values = [arg(env) for arg in args]
        return _call_value(callee(env), arg_values, name)

    return call


def _compile_assignment(node: ast.Assignment) -> CompiledNode:
    value = compile_expression_ast(node.value)
    compound = _BINARY_FUNCS[node.operator[0]] if node.operator != "=" else None
    target = node.target
    if isinstance(target, ast.Identifier):
        name = target.name

        def assign_name(env: Environment) -> Any:
            result = value(env)
            if compound is not None:
                result = compound(env.lookup(name), result)
            env.assign(name, result)
            return result

        return assign_name
    current = compile_expression_ast(target)
    if isinstance(target, ast.Member):
        obj = compile_expression_ast(target.obj)
        prop = target.prop

        def assign_member(env: Environment) -> Any:
            result = value(env)
            if compound is not None:
                result = compound(current(env), result)
            container = obj(env)
            if not isinstance(container, dict):
                raise JavaScriptError("can only assign properties on objects")
            container[prop] = result
            return result

        return assign_member
    if isinstance(target, ast.Index):
        obj = compile_expression_ast(target.obj)
        index = compile_expression_ast(target.index)

        def assign_index(env: Environment) -> Any:
            result = value(env)
            if compound is not None:
                result = compound(current(env), result)
            container = obj(env)
            key = index(env)
            if isinstance(container, list):
                position = int(key)
                while len(container) <= position:
                    container.append(None)
                container[position] = result
            elif isinstance(container, dict):
                container[key] = result
            else:
                raise JavaScriptError("invalid assignment target")
            return result

        return assign_index
    raise JavaScriptError(f"cannot compile assignment target {type(target).__name__}")


# --------------------------------------------------------------- statements


def compile_statements(statements: Sequence[ast.Node]) -> CompiledNode:
    """Compile a statement list into one runner.

    The runner returns ``None`` when execution falls through, ``_BREAK`` /
    ``_CONTINUE`` when a loop-control statement unwinds, or ``(value,)`` when
    a ``return`` executed.
    """
    compiled = [compile_statement(statement) for statement in statements]
    if len(compiled) == 1:
        return compiled[0]

    def run(env: Environment) -> Any:
        for statement in compiled:
            result = statement(env)
            if result is not None:
                return result
        return None

    return run


def compile_statement(node: ast.Node) -> CompiledNode:
    if isinstance(node, ast.VariableDeclaration):
        declarations = [(name, compile_expression_ast(init) if init is not None else None)
                        for name, init in node.declarations]

        def declare(env: Environment) -> None:
            for name, init in declarations:
                env.declare(name, init(env) if init is not None else None)

        return declare
    if isinstance(node, ast.ReturnStatement):
        argument = compile_expression_ast(node.argument) if node.argument is not None else None
        if argument is None:
            return lambda env: (None,)
        return lambda env: (argument(env),)
    if isinstance(node, ast.IfStatement):
        test = compile_expression_ast(node.test)
        consequent = compile_statements(node.consequent)
        alternate = compile_statements(node.alternate) if node.alternate is not None else None

        def if_(env: Environment) -> Any:
            if _js_truthy(test(env)):
                return consequent(Environment(parent=env))
            if alternate is not None:
                return alternate(Environment(parent=env))
            return None

        return if_
    if isinstance(node, ast.ForStatement):
        init = compile_statement(node.init) if node.init is not None else None
        test = compile_expression_ast(node.test) if node.test is not None else None
        update = compile_expression_ast(node.update) if node.update is not None else None
        body = compile_statements(node.body)

        def for_(env: Environment) -> Any:
            loop_env = Environment(parent=env)
            if init is not None:
                init(loop_env)
            iterations = 0
            while test is None or _js_truthy(test(loop_env)):
                result = body(Environment(parent=loop_env))
                if result is not None:
                    if result is _BREAK:
                        break
                    if result is not _CONTINUE:
                        return result
                if update is not None:
                    update(loop_env)
                iterations += 1
                if iterations > 1_000_000:
                    raise JavaScriptError("for-loop exceeded 1,000,000 iterations")
            return None

        return for_
    if isinstance(node, ast.ForOfStatement):
        iterable = compile_expression_ast(node.iterable)
        body = compile_statements(node.body)
        variable = node.variable
        of = node.of

        def for_of(env: Environment) -> Any:
            container = iterable(env)
            if isinstance(container, dict):
                values = list(container.values()) if of else list(container.keys())
            elif isinstance(container, (str, list)):
                values = list(container) if of else [str(i) for i in range(len(container))]
            else:
                raise JavaScriptError(f"value of type {type(container).__name__} is not iterable")
            for value in values:
                loop_env = Environment(parent=env)
                loop_env.declare(variable, value)
                result = body(loop_env)
                if result is not None:
                    if result is _BREAK:
                        break
                    if result is not _CONTINUE:
                        return result
            return None

        return for_of
    if isinstance(node, ast.WhileStatement):
        test = compile_expression_ast(node.test)
        body = compile_statements(node.body)

        def while_(env: Environment) -> Any:
            iterations = 0
            while _js_truthy(test(env)):
                result = body(Environment(parent=env))
                if result is not None:
                    if result is _BREAK:
                        break
                    if result is not _CONTINUE:
                        return result
                iterations += 1
                if iterations > 1_000_000:
                    raise JavaScriptError("while-loop exceeded 1,000,000 iterations")
            return None

        return while_
    if isinstance(node, ast.ThrowStatement):
        argument = compile_expression_ast(node.argument)

        def throw(env: Environment) -> None:
            raise JSThrownError(_js_string(argument(env)))

        return throw
    if isinstance(node, ast.BreakStatement):
        return lambda env: _BREAK
    if isinstance(node, ast.ContinueStatement):
        return lambda env: _CONTINUE
    if isinstance(node, ast.Program):
        body = compile_statements(list(node.body))
        return lambda env: body(Environment(parent=env))
    # Expression statements, and bare expressions used in statement position.
    expression = compile_expression_ast(
        node.expression if isinstance(node, ast.ExpressionStatement) else node)
    return lambda env: (expression(env), None)[1]


def compile_program_ast(program: ast.Program) -> CompiledNode:
    """Compile a ``${ ... }`` body / statement program into one runner."""
    return compile_statements(list(program.body))


# ------------------------------------------------------------- library scopes


class _ContextRoot(Environment):
    """Root scope of a library: the standard library plus a per-thread overlay
    carrying the current activation's ``inputs``/``self``/``runtime``.

    The overlay lives *below* the library environment in the chain so library
    functions (whose closures capture the library environment) resolve context
    names of the evaluation that calls them, while each thread's concurrent
    evaluations of a shared scope stay isolated.
    """

    def __init__(self, stdlib_variables: Dict[str, Any]) -> None:
        self.parent = None
        self._stdlib = stdlib_variables
        self._tls = threading.local()

    @property
    def variables(self) -> Any:  # type: ignore[override]
        stack = getattr(self._tls, "stack", None)
        if stack:
            return ChainMap(stack[-1], self._stdlib)
        return self._stdlib

    def push_context(self, context: Dict[str, Any]) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(context)

    def pop_context(self) -> None:
        self._tls.stack.pop()


def fingerprint_library(expression_lib: Sequence[str]) -> str:
    """Content hash identifying an ``expressionLib`` (order-sensitive)."""
    digest = hashlib.sha1()
    for source in expression_lib:
        digest.update(source.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class LibraryScope:
    """Compiled form of an ``expressionLib``: built per evaluation by the
    uncached pipeline, once per library content by the compiled one.

    Construction builds the standard library and parses and executes every
    library source (library functions are :class:`CompiledFunction`).
    :meth:`activation` then yields a per-evaluation frame in O(1).
    """

    def __init__(self, expression_lib: Optional[Sequence[str]] = None) -> None:
        self.sources = tuple(expression_lib or ())
        self.fingerprint = fingerprint_library(self.sources)
        self._root = _ContextRoot(_standard_library())
        self.lib_env = Environment(parent=self._root)
        for source in self.sources:
            compile_program_ast(parse_program(source))(self.lib_env)

    @contextmanager
    def activation(self, context: Optional[Dict[str, Any]]):
        """Bind ``context`` for the current thread and yield the frame."""
        self._root.push_context(dict(context or {}))
        try:
            yield Environment(parent=self.lib_env)
        finally:
            self._root.pop_context()

    def evaluate(self, compiled: CompiledNode, context: Optional[Dict[str, Any]]) -> Any:
        """Evaluate a compiled expression against ``context``."""
        with self.activation(context) as env:
            return compiled(env)

    def run_body(self, compiled: CompiledNode, context: Optional[Dict[str, Any]]) -> Any:
        """Run a compiled ``${ ... }`` body; its ``return`` value is the result."""
        with self.activation(context) as env:
            local = Environment(parent=env)
            result = compiled(local)
            if type(result) is tuple:
                return result[0]
            return None


#: Shared scopes keyed by library fingerprint (bounded LRU).
_SCOPE_CACHE: "OrderedDict[str, LibraryScope]" = OrderedDict()
_SCOPE_CACHE_MAX = 64
_SCOPE_LOCK = threading.Lock()


def shared_library_scope(expression_lib: Optional[Sequence[str]] = None) -> LibraryScope:
    """A process-wide :class:`LibraryScope` for this library content.

    Evaluators with byte-identical libraries share one scope, so the standard
    library and the expressionLib are built once per *content*, not once per
    evaluator (let alone once per evaluation).
    """
    key = fingerprint_library(tuple(expression_lib or ()))
    with _SCOPE_LOCK:
        scope = _SCOPE_CACHE.get(key)
        if scope is not None:
            _SCOPE_CACHE.move_to_end(key)
            return scope
    scope = LibraryScope(expression_lib)
    with _SCOPE_LOCK:
        existing = _SCOPE_CACHE.get(key)
        if existing is not None:
            return existing
        _SCOPE_CACHE[key] = scope
        while len(_SCOPE_CACHE) > _SCOPE_CACHE_MAX:
            _SCOPE_CACHE.popitem(last=False)
    return scope


def clear_scope_cache() -> None:
    """Drop all shared library scopes (tests and benchmarks)."""
    with _SCOPE_LOCK:
        _SCOPE_CACHE.clear()
