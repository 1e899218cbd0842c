"""The JavaScript back end: each AST compiled once into a Python code object.

This is the only code that runs JavaScript.  Nothing walks an AST at
evaluation time, and no text of a CWL document ever reaches Python's parser:

* :func:`compile_expression_ast` / :func:`compile_program_ast` translate a JS
  AST into a Python :mod:`ast` module, built from nodes only — every JS name is
  mangled into a ``j_`` identifier and every literal is an ``ast.Constant`` —
  and ``compile()`` it once.  JS parameters and ``var`` declarations become
  Python fast locals (``var`` is function-scoped and ``let`` / ``const``
  block-scoped, as in node); inner functions are Python closures, with
  ``nonlocal`` where they assign an outer variable (a loop pass's ``let`` /
  ``const`` that such a closure uses is a one-element list made anew for each
  pass, so each pass and its closures share one binding); ``if`` / ``while`` /
  ``for`` / ``return`` / ``break`` / ``continue`` are Python's own.  A
  builtin method call is a ``type(x) is str`` / ``list`` guarded direct call
  into the tables of :mod:`~repro.cwl.expressions.jsengine.values`, with
  :func:`_call_method` as the fallback.
* The result is a Python function of a scope's three name handlers
  (``load`` / ``store`` / ``declare``).  A name no enclosing JS function
  declares is *free* and resolves at run time through them: library globals,
  then the per-thread context overlay (``inputs`` / ``self`` / ``runtime``),
  then the standard library.
* :class:`LibraryScope` is the compiled form of an ``expressionLib``: the
  standard library is built and every library source is parsed, compiled and
  run once per scope; its top-level bindings are the library globals.  Each
  evaluation binds its context in a per-thread overlay, so library functions
  see that evaluation's ``inputs`` / ``self`` / ``runtime``.

How long a scope and a compiled function live is the caller's cost model, not
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
share them, checks that the two agree.  An assignment to an undeclared name
outside the library lands in the evaluation's own overlay, never in a shared
scope.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import itertools
import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from operator import ge, gt, le, lt
from types import CodeType, FunctionType, SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cwl.errors import JavaScriptError
from repro.cwl.expressions.jsengine import ast_nodes as js
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
    "CompiledNode",
    "JSThrownError",
    "LibraryScope",
    "compile_expression_ast",
    "compile_program_ast",
    "shared_library_scope",
    "clear_scope_cache",
]


class JSThrownError(JavaScriptError):
    """A ``throw`` statement executed inside evaluated JavaScript."""


#: A compiled expression, ``${...}`` body or library source: a Python function
#: of a scope's ``load`` / ``store`` / ``declare`` handlers (see
#: :meth:`LibraryScope.evaluate`).
CompiledNode = Callable[..., Any]


# --------------------------------------------------------------------- builtins

#: Builtin method tables by value type (``bool`` is an ``int`` here, as in the
#: value model, so it has the number methods).
_METHODS = {str: STRING_METHODS, list: ARRAY_METHODS, dict: OBJECT_METHODS,
            int: NUMBER_METHODS, float: NUMBER_METHODS, bool: NUMBER_METHODS}

#: What a builtin written in Python raises on arguments JavaScript would have
#: coerced or rejected; reported as a JavaScript failure, not an engine one.
_BUILTIN_ERRORS = (TypeError, ValueError, LookupError, ArithmeticError, AttributeError)


def _builtin_method(obj: Any, prop: str) -> Optional[Callable[..., Any]]:
    """The value-first builtin ``prop`` of ``obj``'s type, if it has one."""
    methods = _METHODS.get(type(obj))
    if methods is None:  # a subclass of a value type, or a function
        methods = next((table for kind, table in _METHODS.items() if isinstance(obj, kind)), {})
    return methods.get(prop)


def _member_access(obj: Any, prop: str) -> Any:
    """``obj.prop``: ``length``, own property, a bound builtin, else ``undefined``.

    Only the value model is visible: a function, or any other Python object a
    value can hold, has no properties (never its Python attributes)."""
    if prop == "length" and isinstance(obj, (str, list)):
        return len(obj)
    if isinstance(obj, dict) and prop in obj:
        return obj[prop]
    if obj is None:
        raise JavaScriptError(f"cannot read property {prop!r} of null/undefined")
    method = _builtin_method(obj, prop)
    return None if method is None else partial(method, obj)


def _array_index(key: str) -> Optional[int]:
    """The array index a property key names (``"0"``, ``"12"``; not ``"01"``
    or ``"1.5"``), else ``None``."""
    if key.isascii() and key.isdigit() and (key == "0" or key[0] != "0"):
        return int(key)
    return None


def _index_access(obj: Any, index: Any) -> Any:
    """``obj[index]``: an integer indexes an array or string; any other index
    is the property its string form names, as in JavaScript (``[1, 2]["1"]``
    is ``2``, ``"abc"[1.5]`` is ``undefined``, ``{"1": "a"}[1]`` is ``"a"``)."""
    if type(index) is int and isinstance(obj, (list, str)):
        return obj[index] if 0 <= index < len(obj) else None
    if obj is None:
        raise JavaScriptError("cannot index null/undefined")
    key = _js_string(index)
    if isinstance(obj, (list, str)):
        position = _array_index(key)
        if position is not None:
            return obj[position] if position < len(obj) else None
    return _member_access(obj, key)


def _set_member(container: Any, prop: str, value: Any) -> Any:
    if not isinstance(container, dict):
        raise JavaScriptError("can only assign properties on objects")
    container[prop] = value
    return value


def _set_index(container: Any, key: Any, value: Any) -> Any:
    """``container[key] = value``, ``key`` read as :func:`_index_access` reads it."""
    if isinstance(container, list):
        position = key if type(key) is int and key >= 0 else _array_index(_js_string(key))
        if position is None:
            raise JavaScriptError(f"array index must be a non-negative integer, got {key!r}")
        while len(container) <= position:
            container.append(None)
        container[position] = value
    elif isinstance(container, dict):
        container[_js_string(key)] = value
    else:
        raise JavaScriptError("invalid assignment target")
    return value


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
    """``obj.prop(args)``: direct table dispatch, no bound-callable alloc."""
    methods = _METHODS.get(type(obj))
    if methods is not None:
        method = methods.get(prop)
        if method is not None and not (methods is OBJECT_METHODS and prop in obj):
            try:
                return method(obj, *args)
            except _BUILTIN_ERRORS as exc:
                raise _builtin_failure(prop, exc) from exc
    return _call_value(_member_access(obj, prop), args, prop)


def _method_fallback(prop: str, obj: Any, *args: Any) -> Any:
    return _call_method(obj, prop, list(args))


#: The line of a direct builtin call site is this plus its index in the
#: function's site table; every other line of emitted code is line 1.
_FIRST_SITE_LINE = 2


def _site_failure(exc: Exception, names: Tuple[str, ...]) -> JavaScriptError:
    """:func:`_builtin_failure` for an error that escaped a direct builtin call
    of emitted code: the failing site is the traceback's line in that frame."""
    index = exc.__traceback__.tb_lineno - _FIRST_SITE_LINE if exc.__traceback__ else -1
    return _builtin_failure(names[index] if 0 <= index < len(names) else "builtin", exc)


# ----------------------------------------------------------------- operators
#
# Value-level operator functions (strict evaluation); `&&` / `||` / `?:` are
# emitted as Python conditionals.


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
        return _js_string(left) in right
    if isinstance(right, list):
        position = left if type(left) is int else _array_index(_js_string(left))
        return position is not None and 0 <= position < len(right)
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


def _number(value: Any) -> Any:
    return _maybe_int(_to_number(value))


def _increment(value: Any, delta: int) -> Any:
    return _maybe_int(_to_number(value) + delta)


def _first(value: Any, _later: Any) -> Any:
    return value


def _put(box: List[Any], value: Any) -> Any:
    box[0] = value
    return value


def _typeof_free(load: Callable[[str], Any], name: str) -> str:
    """``typeof name`` for a free name: ``"undefined"`` if it is not bound."""
    try:
        return _js_typeof(load(name))
    except JavaScriptError:
        return "undefined"


def _of_values(container: Any) -> list:
    if isinstance(container, dict):
        return list(container.values())
    if isinstance(container, (str, list)):
        return list(container)
    raise JavaScriptError(f"value of type {type(container).__name__} is not iterable")


def _in_keys(container: Any) -> list:
    if isinstance(container, dict):
        return list(container.keys())
    if isinstance(container, (str, list)):
        return [str(i) for i in range(len(container))]
    raise JavaScriptError(f"value of type {type(container).__name__} is not iterable")


def _argument(args: Tuple[Any, ...], index: int) -> Any:
    return args[index] if index < len(args) else None


def _thrown(value: Any) -> JSThrownError:
    return JSThrownError(_js_string(value))


def _loop_limit(kind: str) -> JavaScriptError:
    return JavaScriptError(f"{kind}-loop exceeded 1,000,000 iterations")


#: The globals of every function the compiler emits: these helpers and the
#: builtin method tables, nothing else (no Python builtins).
_RUNTIME: Dict[str, Any] = {
    "__builtins__": {},
    "_type": type, "_str": str, "_list": list,
    "_truthy": _js_truthy, "_typeof": _js_typeof, "_typeof_free": _typeof_free,
    "_neg": lambda value: _maybe_int(-_to_number(value)), "_number": _number,
    "_increment": _increment, "_first": _first, "_put": _put,
    "_member": _member_access, "_index": _index_access,
    "_set_member": _set_member, "_set_index": _set_index,
    "_call_value": _call_value, "_call_method": _call_method,
    "_fallback": lambda prop: partial(_method_fallback, prop),
    "_BUILTIN_ERRORS": _BUILTIN_ERRORS, "_site_failure": _site_failure,
    "_of_values": _of_values, "_in_keys": _in_keys, "_argument": _argument,
    "_thrown": _thrown, "_loop_limit": _loop_limit,
    # A JS loop runs at most 1,000,000 times; the 1,000,001st pass raises.
    "_LIMIT": range(1_000_001),
}
_OPERATOR_NAMES = {operator: f"_op{index}" for index, operator in enumerate(_BINARY_FUNCS)}
_RUNTIME.update({_OPERATOR_NAMES[op]: func for op, func in _BINARY_FUNCS.items()})
#: Direct-call targets: ``(type name, prefix, table)``.
_GUARDED = (("_str", "_S_", STRING_METHODS), ("_list", "_A_", ARRAY_METHODS))
_RUNTIME.update({prefix + name: method for _, prefix, table in _GUARDED
                 for name, method in table.items()})


# ------------------------------------------------------------ name mangling


def _mangle(name: str) -> str:
    """An injective map of JS identifiers into ``j_``-prefixed ASCII Python
    identifiers: ASCII letters and digits stay, ``_`` doubles, any other
    character becomes ``_<hex code point>_``."""
    out = ["j_"]
    for char in name:
        if char.isascii() and char.isalnum():
            out.append(char)
        else:
            out.append("__" if char == "_" else f"_{ord(char):x}_")
    return "".join(out)


# Emitted local names never collide: a JS binding is ``j_<mangled>`` (or
# ``b<n>_<mangled>`` in a nested block), a temporary ``t<n>``, a hoisted
# function expression ``f<n>`` (made per loop pass by ``m<n>``), a loop's
# update flag ``k<n>``; helpers are the ``_``-prefixed globals above.


_ARGUMENTS = _mangle("arguments")

#: Every emitted node sits at line 1 (a direct builtin call site has its own
#: line, see :func:`_site_failure`), set as the node is made: no pass over the
#: tree fills positions in.
_LINE_1 = dict(lineno=1, col_offset=0, end_lineno=1, end_col_offset=0)
_POSITIONED = (ast.stmt, ast.expr, ast.arg, ast.excepthandler)
#: :mod:`ast` as the compiler uses it: a node class with a position makes its
#: nodes at line 1.
py = SimpleNamespace(**{
    name: partial(kind, **_LINE_1) if isinstance(kind, type) and issubclass(kind, _POSITIONED)
    else kind
    for name, kind in vars(ast).items() if not name.startswith("_")})


def _name(identifier: str) -> py.Name:
    return py.Name(id=identifier, ctx=py.Load())


def _store_name(identifier: str) -> py.Name:
    return py.Name(id=identifier, ctx=py.Store())


def _call(function: str, *args: py.expr) -> py.Call:
    return py.Call(func=_name(function), args=list(args), keywords=[])


def _is(left: py.expr, kind: str) -> py.Compare:
    return py.Compare(left=left, ops=[py.Is()], comparators=[_name(kind)])


def _function_node(name: str, params: Sequence[str], body: List[py.stmt],
                   vararg: Optional[str] = None, defaults: bool = True) -> py.FunctionDef:
    arguments = py.arguments(
        posonlyargs=[], args=[py.arg(arg=param) for param in params],
        vararg=py.arg(arg=vararg) if vararg else None, kwonlyargs=[], kw_defaults=[],
        kwarg=None, defaults=[py.Constant(value=None) for _ in params] if defaults else [])
    fields = dict(name=name, args=arguments, body=body, decorator_list=[], returns=None)
    if "type_params" in ast.FunctionDef._fields:  # Python >= 3.12
        fields["type_params"] = []
    return py.FunctionDef(**fields)


# ------------------------------------------------------------ scope analysis


def _var_names(statements: Sequence[js.Node]) -> List[str]:
    """Names ``var`` declares in ``statements``, nested blocks included, nested
    functions not (``var`` is function-scoped)."""
    names: List[str] = []

    def visit(nodes: Sequence[js.Node]) -> None:
        for node in nodes:
            if isinstance(node, js.VariableDeclaration) and node.kind == "var":
                names.extend(name for name, _ in node.declarations)
            elif isinstance(node, js.IfStatement):
                visit(node.consequent)
                visit(node.alternate or ())
            elif isinstance(node, js.ForStatement):
                visit([node.init] if node.init is not None else [])
                visit(node.body)
            elif isinstance(node, js.ForOfStatement):
                if node.kind == "var":
                    names.append(node.variable)
                visit(node.body)
            elif isinstance(node, (js.WhileStatement, js.Program)):
                visit(node.body)

    visit(statements)
    return list(dict.fromkeys(names))


def _lexical_names(statements: Sequence[js.Node]) -> List[str]:
    """Names ``let`` / ``const`` declare directly in one block."""
    return list(dict.fromkeys(
        name for node in statements
        if isinstance(node, js.VariableDeclaration) and node.kind != "var"
        for name, _ in node.declarations))


def _continues(statements: Sequence[js.Node]) -> bool:
    """Whether a ``continue`` in ``statements`` targets the enclosing loop."""
    for node in statements:
        if isinstance(node, js.ContinueStatement):
            return True
        if isinstance(node, js.IfStatement) and (
                _continues(node.consequent) or _continues(node.alternate or ())):
            return True
        if isinstance(node, js.Program) and _continues(node.body):
            return True
    return False


def _makes_function(nodes: Sequence[Any]) -> bool:
    """Whether a function expression occurs anywhere in ``nodes``."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, js.FunctionExpression):
            return True
        if isinstance(node, js.Node):
            stack.extend(getattr(node, field.name) for field in dataclasses.fields(node))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return False


class _Function:
    """Compile-time state of one JS function, or of a program's top level."""

    def __init__(self, parent: Optional["_Function"], library: bool,
                 self_name: Optional[Tuple[str, str]], unit: bool) -> None:
        self.parent = parent
        self.unit = unit
        #: The top level of an ``expressionLib`` source, whose own bindings
        #: are library globals, reached through ``_load`` / ``_store``.
        self.library = library
        #: A named function expression's own name and the Python name of the
        #: ``def`` it became (bound in the enclosing function).
        self.self_name = self_name
        self.names: Dict[str, str] = {}  # function-level JS name -> Python name
        self.blocks: List[Dict[str, str]] = []  # let/const blocks, innermost last
        self.hoisted: List[str] = []  # Python locals set to None on entry
        self.nonlocals: set = set()
        self.sites: List[str] = []  # the builtin of each direct call site
        self.loops = 0
        self.uses_arguments = False
        #: Boxes: the let / const bindings of a loop pass that a function made
        #: in the loop can capture.  Each is a one-element list, made anew for
        #: each pass, so the pass and its closures share it.
        self.boxes: set = set()
        #: The enclosing function's boxes this one uses: its def is made by a
        #: function of them, so each closure keeps the boxes of its own pass.
        self.captured: List[str] = []


# ------------------------------------------------------------------ compiler


class _Compiler:
    """Emit one compile unit: an expression, a ``${...}`` body or a library
    source, as one Python function ``js_unit(_load, _store, _declare)``."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.fn: Optional[_Function] = None
        self.out: List[py.stmt] = []

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    # ------------------------------------------------------------------ units

    def unit(self, statements: Sequence[js.Node] = (), expression: Optional[js.Node] = None,
             library: bool = False) -> CompiledNode:
        try:
            definition = self.function("js_unit", ("_load", "_store", "_declare"), statements,
                                       expression, library=library, unit=True)
            module = py.Module(body=definition, type_ignores=[])
            code = compile(module, "<javascript>", "exec", dont_inherit=True)
        except (SyntaxError, ValueError, RecursionError) as exc:
            raise JavaScriptError(f"cannot compile JavaScript: {exc}") from exc
        unit_code = next(const for const in code.co_consts if isinstance(const, CodeType))
        return FunctionType(unit_code, _RUNTIME)

    def function(self, name: str, params: Sequence[str], statements: Sequence[js.Node],
                 expression: Optional[js.Node] = None, self_name: Optional[Tuple[str, str]] = None,
                 library: bool = False, unit: bool = False) -> List[py.stmt]:
        """The statements defining JS function ``name`` (or a unit), its own
        scope resolved: a ``def``, or a ``def`` made per loop pass (see
        :attr:`_Function.captured`)."""
        fn = _Function(self.fn, library, self_name, unit)
        if not unit:
            fn.names.update((param, _mangle(param)) for param in params)
        declared = [name for name in _var_names(statements) + _lexical_names(statements)
                    if name not in fn.names]
        fn.names.update((name, _mangle(name)) for name in declared)
        if not library:
            fn.hoisted.extend(fn.names[name] for name in declared)

        saved = self.fn, self.out
        self.fn, self.out = fn, []
        try:
            if expression is not None:
                self.out.append(py.Return(value=self.expr(expression)))
            for statement in statements:
                self.statement(statement)
            body = self.out
        finally:
            self.fn, self.out = saved

        starred = fn.uses_arguments or len(set(params)) != len(params)
        prologue: List[py.stmt] = []
        if fn.uses_arguments:
            prologue.append(py.Assign(targets=[_store_name(fn.names["arguments"])],
                                      value=_call("_list", _name("args"))))
        if starred:
            prologue.extend(
                py.Assign(targets=[_store_name(fn.names[param])],
                          value=_call("_argument", _name("args"), py.Constant(value=index)))
                for index, param in enumerate(params))
        if fn.hoisted:
            prologue.append(py.Assign(targets=[_store_name(local) for local in fn.hoisted],
                                      value=py.Constant(value=None)))
        if library:
            prologue.extend(py.Expr(value=_call("_declare", py.Constant(value=name)))
                            for name in declared)
        body = prologue + body
        if fn.sites:
            # Zero-cost until a direct builtin call raises; the traceback's
            # line names the builtin (see _site_failure).
            failure = _call("_site_failure", _name("error"), py.Constant(value=tuple(fn.sites)))
            handler = py.ExceptHandler(type=_name("_BUILTIN_ERRORS"), name="error",
                                       body=[py.Raise(exc=failure, cause=_name("error"))])
            body = [py.Try(body=body, handlers=[handler], orelse=[], finalbody=[])]
        if fn.nonlocals:
            body.insert(0, py.Nonlocal(names=sorted(fn.nonlocals)))
        if unit:
            return [_function_node(name, params, body, defaults=False)]
        if starred:
            definition = _function_node(name, (), body, vararg="args")
        else:
            definition = _function_node(name, [fn.names[param] for param in params], body,
                                        vararg="rest")
        if not fn.captured:
            return [definition]
        # def m(b1_x): def f(...): ...; return f  /  f = m(b1_x), b1_x a box
        maker = self.fresh("m")
        return [_function_node(maker, fn.captured, [definition, py.Return(value=_name(name))],
                               defaults=False),
                py.Assign(targets=[_store_name(name)],
                          value=_call(maker, *map(_name, fn.captured)))]

    # ------------------------------------------------------------------ names

    def resolve(self, name: str) -> Optional[Tuple[_Function, str]]:
        """The function owning JS ``name`` and its Python name; ``None`` for a
        free name or a library global."""
        fn = self.fn
        while fn is not None:
            for block in reversed(fn.blocks):
                if name in block:
                    local = block[name]
                    if fn is not self.fn and local in fn.boxes:
                        inner = self.fn
                        while inner.parent is not fn:
                            inner = inner.parent
                        if local not in inner.captured:
                            inner.captured.append(local)
                    return fn, local
            if name in fn.names:
                return None if fn.library else (fn, fn.names[name])
            if fn.self_name is not None and fn.self_name[0] == name:
                return fn.parent, fn.self_name[1]
            if name == "arguments" and not fn.unit:  # a function's own arguments
                fn.names[name] = _ARGUMENTS
                fn.uses_arguments = True
                return fn, _ARGUMENTS
            fn = fn.parent
        return None

    def load(self, name: str) -> py.expr:
        found = self.resolve(name)
        if found is None:
            return _call("_load", py.Constant(value=name))
        owner, local = found
        if local in owner.boxes:
            return py.Subscript(value=_name(local), slice=py.Constant(value=0), ctx=py.Load())
        return _name(local)

    def assign(self, name: str, value: py.expr, statement: bool) -> Any:
        """``name = value`` as a statement, or as an expression of its value."""
        found = self.resolve(name)
        if found is None:
            call = _call("_store", py.Constant(value=name), value)
            return py.Expr(value=call) if statement else call
        owner, local = found
        if local in owner.boxes:
            if not statement:
                return _call("_put", _name(local), value)
            box = py.Subscript(value=_name(local), slice=py.Constant(value=0), ctx=py.Store())
            return py.Assign(targets=[box], value=value)
        if owner is not self.fn:
            self.fn.nonlocals.add(local)
        if statement:
            return py.Assign(targets=[_store_name(local)], value=value)
        return py.NamedExpr(target=_store_name(local), value=value)

    def push_scope(self, names: Sequence[str], boxed: bool) -> List[str]:
        """Open a block scope binding ``let`` / ``const`` ``names``, as boxes
        if ``boxed``; the caller pops ``self.fn.blocks``.  Returns the boxes."""
        fn = self.fn
        scope = {name: f"b{next(self._counter)}_{_mangle(name)[2:]}" for name in names}
        fn.blocks.append(scope)
        if not boxed:
            fn.hoisted.extend(scope.values())
            return []
        fn.boxes.update(scope.values())
        return list(scope.values())

    @staticmethod
    def new_boxes(boxes: Sequence[str], copy: bool = False) -> List[py.stmt]:
        """``b = [None]`` for each box, a fresh binding; with ``copy``,
        ``b = [b[0]]``, a fresh binding holding the current value."""
        return [py.Assign(targets=[_store_name(box)], value=py.List(elts=[
            py.Subscript(value=_name(box), slice=py.Constant(value=0), ctx=py.Load())
            if copy else py.Constant(value=None)], ctx=py.Load())) for box in boxes]

    def block(self, statements: Sequence[js.Node]) -> List[py.stmt]:
        """A nested block's statements, in their own ``let`` / ``const`` scope
        (boxed in a loop that makes a function)."""
        names = _lexical_names(statements)
        boxes = self.push_scope(names, boxed=bool(
            names and self.fn.loops and _makes_function(statements)))
        saved, self.out = self.out, self.new_boxes(boxes)
        try:
            for statement in statements:
                self.statement(statement)
            return self.out or [py.Pass()]
        finally:
            self.out = saved
            self.fn.blocks.pop()

    # ------------------------------------------------------------- statements

    def statement(self, node: js.Node) -> None:
        out = self.out
        if isinstance(node, js.VariableDeclaration):
            for name, init in node.declarations:
                found = self.resolve(name)
                if isinstance(init, js.FunctionExpression) and init.name == name:
                    # A function declaration: calls itself through the variable.
                    if found is not None and found[0] is self.fn \
                            and found[1] not in self.fn.boxes:  # the def binds it
                        out.extend(self.function(found[1], init.params, init.body))
                    else:
                        out.append(self.assign(name, self.function_value(init, None), True))
                elif init is not None or node.kind != "var":  # a bare `var x;` is hoisted
                    value = self.expr(init) if init is not None else py.Constant(value=None)
                    out.append(self.assign(name, value, statement=True))
        elif isinstance(node, js.ReturnStatement):
            out.append(py.Return(value=self.expr(node.argument) if node.argument is not None
                                 else py.Constant(value=None)))
        elif isinstance(node, js.IfStatement):
            test = self.test(node.test)
            out.append(py.If(test=test, body=self.block(node.consequent),
                             orelse=self.block(node.alternate) if node.alternate else []))
        elif isinstance(node, js.ForStatement):
            self.for_loop(node)
        elif isinstance(node, js.ForOfStatement):
            self.for_of_loop(node)
        elif isinstance(node, js.WhileStatement):
            self.loop("while", [], node.test, None, node.body)
        elif isinstance(node, js.ThrowStatement):
            out.append(py.Raise(exc=_call("_thrown", self.expr(node.argument)), cause=None))
        elif isinstance(node, (js.BreakStatement, js.ContinueStatement)):
            is_break = isinstance(node, js.BreakStatement)
            if not self.fn.loops:
                raise JavaScriptError(f"{'break' if is_break else 'continue'} outside a loop")
            out.append(py.Break() if is_break else py.Continue())
        elif isinstance(node, js.Program):
            out.extend(self.block(list(node.body)))
        else:  # expression statements, and bare expressions in statement position
            expression = node.expression if isinstance(node, js.ExpressionStatement) else node
            if isinstance(expression, js.SequenceExpression):
                for item in expression.expressions:
                    self.statement(item)
            elif isinstance(expression, js.Assignment):
                out.append(self.assignment(expression, statement=True))
            elif isinstance(expression, js.UpdateExpression):
                out.append(self.update(expression, statement=True))
            else:
                out.append(py.Expr(value=self.expr(expression)))

    def for_loop(self, node: js.ForStatement) -> None:
        """``for (init; test; update)`` inside a block holding the init's
        ``let``; a ``continue`` runs the update, through a flag."""
        head = [node.init] if node.init is not None else []
        boxes = self.push_scope(_lexical_names(head), boxed=_makes_function([node]))
        self.out.extend(self.new_boxes(boxes))
        try:
            for statement in head:
                self.statement(statement)
            prelude: List[py.stmt] = []
            if node.update is not None and _continues(node.body):
                flag = self.fresh("k")
                self.out.append(py.Assign(targets=[_store_name(flag)],
                                          value=py.Constant(value=False)))
                saved, self.out = self.out, []
                self.statement(node.update)
                # Each pass copies the head's boxes, before the update runs.
                prelude.extend(self.new_boxes(boxes, copy=True))
                prelude.append(py.If(test=_name(flag), body=self.out, orelse=[
                    py.Assign(targets=[_store_name(flag)], value=py.Constant(value=True))]))
                self.out = saved
                self.loop("for", prelude, node.test, None, node.body)
            else:
                self.loop("for", prelude, node.test, node.update, node.body,
                          self.new_boxes(boxes, copy=True))
        finally:
            self.fn.blocks.pop()

    def loop(self, kind: str, prelude: List[py.stmt], test: Optional[js.Node],
             update: Optional[js.Node], body: Sequence[js.Node],
             renew: Sequence[py.stmt] = ()) -> None:
        """``for _ in range(1_000_001): [prelude] if not test: break; body;
        [renew] update`` — ``else:`` the iteration guard raises."""
        outer, self.out = self.out, list(prelude)
        self.fn.loops += 1
        try:
            if test is not None:
                condition = self.test(test)
                self.out.append(py.If(test=py.UnaryOp(op=py.Not(), operand=condition),
                                      body=[py.Break()], orelse=[]))
            statements = self.out
            statements.extend(self.block(body))
            if update is not None:
                statements.extend(renew)
                self.out = statements
                self.statement(update)
        finally:
            self.fn.loops -= 1
            self.out = outer
        self.out.append(py.For(target=_store_name("_"), iter=_name("_LIMIT"), body=statements,
                               orelse=[py.Raise(exc=_call("_loop_limit", py.Constant(value=kind)),
                                                cause=None)]))

    def for_of_loop(self, node: js.ForOfStatement) -> None:
        fn = self.fn
        boxes = self.push_scope([node.variable] if node.kind != "var" else [],
                                boxed=_makes_function(node.body))
        self.out.extend(self.new_boxes(boxes))  # the binding the iterable sees
        fn.loops += 1
        try:
            items = _call("_of_values" if node.of else "_in_keys", self.expr(node.iterable))
            found = self.resolve(node.variable)
            if found is not None and found[0] is fn and not boxes:
                target, first = found[1], []
            else:  # a box, a library global, or an outer function's variable
                target = self.fresh("t")
                first = self.new_boxes(boxes)
                first.append(self.assign(node.variable, _name(target), statement=True))
            body = first + self.block(node.body)
        finally:
            fn.loops -= 1
            fn.blocks.pop()
        self.out.append(py.For(target=_store_name(target), iter=items, body=body, orelse=[]))

    # ------------------------------------------------------------ expressions

    def test(self, node: js.Node) -> py.expr:
        """``node`` as a Python condition (JS truthiness)."""
        if isinstance(node, js.BinaryOp) and node.operator in ("&&", "||"):
            op = py.And() if node.operator == "&&" else py.Or()
            return py.BoolOp(op=op, values=[self.test(node.left), self.test(node.right)])
        if isinstance(node, js.UnaryOp) and node.operator == "!":
            return py.UnaryOp(op=py.Not(), operand=self.test(node.operand))
        return _call("_truthy", self.expr(node))

    def expr(self, node: js.Node) -> py.expr:
        if isinstance(node, js.Literal):
            return py.Constant(value=node.value)
        if isinstance(node, js.Identifier):
            return self.load(node.name)
        if isinstance(node, js.ArrayLiteral):
            return py.List(elts=[self.expr(element) for element in node.elements], ctx=py.Load())
        if isinstance(node, js.ObjectLiteral):
            return py.Dict(keys=[py.Constant(value=key) for key, _ in node.entries],
                           values=[self.expr(value) for _, value in node.entries])
        if isinstance(node, js.UnaryOp):
            if node.operator == "typeof":
                operand = node.operand
                if isinstance(operand, js.Identifier) and self.resolve(operand.name) is None:
                    return _call("_typeof_free", _name("_load"), py.Constant(value=operand.name))
                return _call("_typeof", self.expr(operand))
            if node.operator == "!":
                return py.UnaryOp(op=py.Not(), operand=self.test(node.operand))
            if node.operator == "-":
                return _call("_neg", self.expr(node.operand))
            if node.operator == "+":
                return _call("_number", self.expr(node.operand))
            raise JavaScriptError(f"unsupported unary operator {node.operator!r}")
        if isinstance(node, js.BinaryOp):
            return self.binary(node)
        if isinstance(node, js.Conditional):
            return py.IfExp(test=self.test(node.test), body=self.expr(node.consequent),
                            orelse=self.expr(node.alternate))
        if isinstance(node, js.SequenceExpression):  # (a, b, c)[-1]
            return py.Subscript(value=py.Tuple(elts=[self.expr(item) for item in node.expressions],
                                               ctx=py.Load()),
                                slice=py.Constant(value=-1), ctx=py.Load())
        if isinstance(node, js.Member):
            return _call("_member", self.expr(node.obj), py.Constant(value=node.prop))
        if isinstance(node, js.Index):
            return _call("_index", self.expr(node.obj), self.expr(node.index))
        if isinstance(node, js.Call):
            return self.call(node)
        if isinstance(node, js.FunctionExpression):
            return self.function_value(node, node.name)
        if isinstance(node, js.Assignment):
            return self.assignment(node, statement=False)
        if isinstance(node, js.UpdateExpression):
            return self.update(node, statement=False)
        raise JavaScriptError(f"cannot compile AST node {type(node).__name__}")

    def function_value(self, node: js.FunctionExpression, own_name: Optional[str]) -> py.expr:
        """A function expression: its ``def`` goes before the statement being
        emitted, and the expression is the name it binds.  ``own_name`` is the
        name the function's body calls itself by, if any."""
        name = self.fresh("f")
        self_name = (own_name, name) if own_name else None
        self.out.extend(self.function(name, node.params, node.body, node.expression_body,
                                      self_name=self_name))
        return _name(name)

    def binary(self, node: js.BinaryOp) -> py.expr:
        operator = node.operator
        if operator in ("&&", "||"):
            left = self.expr(node.left)
            right = self.expr(node.right)
            value = self.fresh("t")
            test = _call("_truthy", py.NamedExpr(target=_store_name(value), value=left))
            if operator == "&&":
                return py.IfExp(test=test, body=right, orelse=_name(value))
            return py.IfExp(test=test, body=_name(value), orelse=right)
        if operator not in _OPERATOR_NAMES:
            raise JavaScriptError(f"unsupported binary operator {operator!r}")
        return _call(_OPERATOR_NAMES[operator], self.expr(node.left), self.expr(node.right))

    def call(self, node: js.Call) -> py.expr:
        callee = node.callee
        if not isinstance(callee, js.Member):
            name = callee.name if isinstance(callee, js.Identifier) else "function"
            function = self.expr(callee)
            args = py.List(elts=[self.expr(arg) for arg in node.args], ctx=py.Load())
            return _call("_call_value", function, args, py.Constant(value=name))
        prop = callee.prop
        obj = self.expr(callee.obj)
        guards = [(kind, prefix + prop) for kind, prefix, table in _GUARDED if prop in table]
        if not guards:
            args = py.List(elts=[self.expr(arg) for arg in node.args], ctx=py.Load())
            return _call("_call_method", obj, py.Constant(value=prop), args)
        # (_S_prop if (k := _type(t := obj)) is _str else _A_prop if k is _list
        #  else _fallback('prop'))(t, *args), on a line of its own.
        subject, kind = self.fresh("t"), self.fresh("k")
        typed = _call("_type", py.NamedExpr(target=_store_name(subject), value=obj))
        if len(guards) > 1:
            typed = py.NamedExpr(target=_store_name(kind), value=typed)
        method: py.expr = _call("_fallback", py.Constant(value=prop))
        for index, (type_name, target) in reversed(list(enumerate(guards))):
            method = py.IfExp(test=_is(typed if index == 0 else _name(kind), type_name),
                              body=_name(target), orelse=method)
        line = _FIRST_SITE_LINE + len(self.fn.sites)
        self.fn.sites.append(prop)
        args = [self.expr(arg) for arg in node.args]
        return py.Call(func=method, args=[_name(subject)] + args, keywords=[],
                       lineno=line, end_lineno=line, col_offset=0, end_col_offset=0)

    def assignment(self, node: js.Assignment, statement: bool) -> Any:
        target = node.target
        compound = _OPERATOR_NAMES[node.operator[0]] if node.operator != "=" else None
        if isinstance(target, js.Identifier):
            value = self.expr(node.value)
            if compound is not None:
                value = _call(compound, self.load(target.name), value)
            return self.assign(target.name, value, statement)
        container, key = self.fresh("t"), self.fresh("t")
        if isinstance(target, js.Member):
            obj, prop = self.expr(target.obj), py.Constant(value=target.prop)
            setter, getter = "_set_member", "_member"
        elif isinstance(target, js.Index):
            obj, prop = self.expr(target.obj), self.expr(target.index)
            setter, getter = "_set_index", "_index"
        else:
            raise JavaScriptError(f"cannot compile assignment target {type(target).__name__}")
        value = self.expr(node.value)
        if compound is not None:  # the target is read before the value is evaluated
            obj = py.NamedExpr(target=_store_name(container), value=obj)
            prop = py.NamedExpr(target=_store_name(key), value=prop)
            value = _call(compound, _call(getter, _name(container), _name(key)), value)
        call = _call(setter, obj, prop, value)
        return py.Expr(value=call) if statement else call

    def update(self, node: js.UpdateExpression, statement: bool) -> Any:
        name = node.target.name
        delta = py.Constant(value=1 if node.operator == "++" else -1)
        if statement or node.prefix:
            return self.assign(name, _call("_increment", self.load(name), delta), statement)
        old = self.fresh("t")
        current = _call("_number", py.NamedExpr(target=_store_name(old), value=self.load(name)))
        return _call("_first", current,
                     self.assign(name, _call("_increment", _name(old), delta), statement=False))


def compile_expression_ast(node: js.Node) -> CompiledNode:
    """Compile one expression AST; the function returns its value."""
    return _Compiler().unit(expression=node)


def compile_program_ast(program: js.Program) -> CompiledNode:
    """Compile a ``${ ... }`` body; the function returns its ``return`` value."""
    return _Compiler().unit(list(program.body))


# ------------------------------------------------------------- library scopes

_ABSENT = object()


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

    Construction builds the standard library and parses, compiles and runs
    every library source; their top-level bindings are :attr:`globals`.  Free
    names of compiled code resolve through :meth:`load`: library globals, then
    the calling thread's activation (its context overlay), then the standard
    library.
    """

    def __init__(self, expression_lib: Optional[Sequence[str]] = None) -> None:
        self.sources = tuple(expression_lib or ())
        self.fingerprint = fingerprint_library(self.sources)
        self.globals: Dict[str, Any] = {}
        self._stdlib = _standard_library()
        self._tls = threading.local()
        self._handlers = (self.load, self.store, self.declare)
        for source in self.sources:
            _Compiler().unit(list(parse_program(source).body), library=True)(*self._handlers)

    def _overlay(self) -> Optional[Dict[str, Any]]:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def load(self, name: str) -> Any:
        """The value of the free name ``name``."""
        value = self.globals.get(name, _ABSENT)
        if value is _ABSENT:
            overlay = self._overlay()
            if overlay is not None:
                value = overlay.get(name, _ABSENT)
            if value is _ABSENT:
                value = self._stdlib.get(name, _ABSENT)
                if value is _ABSENT:
                    raise JavaScriptError(f"reference to undefined variable {name!r}")
        return value

    def store(self, name: str, value: Any) -> Any:
        """Assign the free name ``name``: a library global stays one; any other
        name lands in the evaluation's overlay (in the globals while the
        library itself runs)."""
        overlay = None if name in self.globals else self._overlay()
        (self.globals if overlay is None else overlay)[name] = value
        return value

    def declare(self, name: str) -> None:
        """A library-level ``var`` / ``let`` / ``const`` / function: a global
        (``undefined`` until assigned; redeclaring keeps its value)."""
        self.globals.setdefault(name, None)

    @contextmanager
    def activation(self, context: Optional[Dict[str, Any]]):
        """Bind ``context`` for the current thread; yields the overlay."""
        stack = self._tls.__dict__.setdefault("stack", [])
        overlay = dict(context or {})
        stack.append(overlay)
        try:
            yield overlay
        finally:
            stack.pop()

    def evaluate(self, compiled: CompiledNode, context: Optional[Dict[str, Any]]) -> Any:
        """Run a compiled expression (its value) or ``${ ... }`` body (its
        ``return`` value) against ``context``."""
        with self.activation(context):
            return compiled(*self._handlers)

    run_body = evaluate


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
