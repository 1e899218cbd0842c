"""The JavaScript value model: coercions, builtin methods, standard library.

JS strings/numbers/booleans are Python ``str`` / ``int`` / ``float`` / ``bool``,
``null`` and ``undefined`` are both ``None``, arrays are ``list``, objects are
``dict``.  The standard library covers what CWL expressions typically use;
regex literals and ``**`` are not supported.

This is the one place a builtin's behaviour is defined.  The compiler of
:mod:`repro.cwl.expressions.jsengine.closures` is the only thing that runs
JavaScript, under both cost models (a fresh scope per evaluation, or shared
scopes): the code it emits calls the method tables below directly, behind a
type guard, and the standard library is what a free name finally resolves to.
So a fix made here is a fix on every engine.  Real ``node`` is the oracle:
``tests/cwl/js_oracle_table.py`` holds its answers.
"""

from __future__ import annotations

import json
import math
import re
from functools import cmp_to_key, reduce
from typing import Any, Callable, Dict, Optional

from repro.cwl.errors import JavaScriptError

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


# ------------------------------------------------------------------ coercions


def _js_truthy(value: Any) -> bool:
    if value is None or isinstance(value, (str, int, float)):
        return bool(value) and value == value  # Python's falsy primitives, plus NaN
    return True  # arrays, objects and functions, empty or not


_TYPEOF = {type(None): "undefined", bool: "boolean", int: "number", float: "number", str: "string"}


def _js_typeof(value: Any) -> str:
    return _TYPEOF.get(type(value)) or ("function" if callable(value) else "object")


def _to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if isinstance(value, str):
        try:
            return float(value.strip() or 0)
        except ValueError:
            return float("nan")
    return float("nan")


def _maybe_int(value: float) -> Any:
    """Collapse floats with no fractional part back to int (JS has one number type)."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return int(value)
    return value


def _number_string(value: float) -> str:
    """``Number::toString(10)``: shortest round-trip digits, JS's exponent thresholds."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    if value == 0:
        return "0"
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    # value = 0.<digits> * 10**point
    point = len(whole) + int(exponent or 0) - (len(whole + fraction) - len(digits))
    digits = digits.rstrip("0")
    if len(digits) <= point <= 21:
        text = digits + "0" * (point - len(digits))
    elif 0 < point <= 21:
        text = digits[:point] + "." + digits[point:]
    elif -6 < point <= 0:
        text = "0." + "0" * -point + digits
    else:
        text = digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e{point - 1:+d}"
    return ("-" if value < 0 else "") + text


def _js_string(value: Any) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value) if abs(value) < 10 ** 21 else _number_string(float(value))
    if isinstance(value, float):
        return _number_string(value)
    if isinstance(value, list):
        return _array_join(value)
    if isinstance(value, dict):
        return "[object Object]"
    return str(value)


def _equals(left: Any, right: Any, strict: bool) -> bool:
    if strict:
        if type(left) is bool or type(right) is bool:
            return left is right if isinstance(left, bool) and isinstance(right, bool) else False
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        return type(left) is type(right) and left == right
    # Loose equality: numeric coercion for mixed number/string, null == undefined.
    if left is None and right is None:
        return True
    if isinstance(left, (int, float)) and isinstance(right, str):
        return float(left) == _to_number(right)
    if isinstance(left, str) and isinstance(right, (int, float)):
        return _to_number(left) == float(right)
    return left == right


# ----------------------------------------------------------- builtin methods
# Value-first (``STRING_METHODS["charAt"](value, index)``): emitted code calls
# them directly, with no per-access allocation.


def _clamp(index: Any, length: int) -> int:
    number = _to_number(index)
    return 0 if number != number else int(min(max(number, 0), length))


def _substring(value: str, start: Any = 0, end: Any = None) -> str:
    a = _clamp(start, len(value))
    b = len(value) if end is None else _clamp(end, len(value))
    return value[min(a, b):max(a, b)]


def _pad(value: str, width: Any, fill: Any, at_start: bool) -> str:
    fill = " " if fill is None else _js_string(fill)
    missing = int(_to_number(width)) - len(value)
    if missing <= 0 or not fill:
        return value
    padding = (fill * (missing // len(fill) + 1))[:missing]
    return padding + value if at_start else value + padding


def _array_push(value: list, *items: Any) -> int:
    value.extend(items)
    return len(value)


def _array_reverse(value: list) -> list:
    value.reverse()
    return value


def _array_sort(value: list, comparator: Optional[Callable] = None) -> list:
    if comparator is None:
        value.sort(key=_js_string)
    else:
        value.sort(key=cmp_to_key(lambda a, b: _to_number(comparator(a, b))))
    return value


def _array_for_each(value: list, fn: Callable) -> None:
    for item in value:
        fn(item)


def _array_join(value: list, sep: Any = None) -> str:
    sep = "," if sep is None else _js_string(sep)
    try:
        return sep.join(value)  # all-string arrays: no per-item coercion
    except TypeError:
        return sep.join("" if item is None else _js_string(item) for item in value)


def _reduce(items: list, fn: Callable, initial: Any = None) -> Any:
    if initial is not None:
        return reduce(fn, items, initial)
    if not items:
        raise JavaScriptError("reduce of empty array with no initial value")
    return reduce(fn, items)


def _number_to_string(value: Any, radix: Any = None) -> str:
    radix = 10 if radix is None else int(_to_number(radix))
    if radix == 10:
        return _js_string(value)
    if not 2 <= radix <= 36:
        raise JavaScriptError("toString() radix must be between 2 and 36")
    if not float(value).is_integer():
        raise JavaScriptError("toString(radix) supports integers only")
    rest, text = abs(int(value)), ""
    while rest:
        rest, digit = divmod(rest, radix)
        text = _DIGITS[digit] + text
    return ("-" if value < 0 else "") + (text or "0")


STRING_METHODS: Dict[str, Callable[..., Any]] = {
    "toUpperCase": lambda v: v.upper(),
    "toLowerCase": lambda v: v.lower(),
    "trim": lambda v: v.strip(),
    "split": lambda v, sep=None, limit=None: (
        list(v) if sep == "" else ([v] if sep is None else v.split(sep))
    )[: int(limit) if limit is not None else None],
    "replace": lambda v, old, new: v.replace(old, new, 1),
    "replaceAll": lambda v, old, new: v.replace(old, new),
    "substring": _substring,
    "slice": lambda v, start=0, end=None: v[int(start): int(end) if end is not None else None],
    "charAt": lambda v, index=0: v[int(index)] if 0 <= int(index) < len(v) else "",
    "charCodeAt": lambda v, index=0: ord(v[int(index)]) if 0 <= int(index) < len(v) else float("nan"),
    "indexOf": lambda v, needle, start=0: v.find(needle, int(start)),
    "lastIndexOf": lambda v, needle: v.rfind(needle),
    "includes": lambda v, needle: needle in v,
    "startsWith": lambda v, needle: v.startswith(needle),
    "endsWith": lambda v, needle: v.endswith(needle),
    "concat": lambda v, *others: v + "".join(_js_string(o) for o in others),
    "repeat": lambda v, count: v * int(count),
    "padStart": lambda v, width, fill=None: _pad(v, width, fill, True),
    "padEnd": lambda v, width, fill=None: _pad(v, width, fill, False),
    "toString": lambda v: v,
}

ARRAY_METHODS: Dict[str, Callable[..., Any]] = {
    "join": _array_join,
    "indexOf": lambda v, needle: v.index(needle) if needle in v else -1,
    "includes": lambda v, needle: needle in v,
    "slice": lambda v, start=0, end=None: v[int(start): int(end) if end is not None else None],
    "concat": lambda v, *others: v + [item for other in others
                                      for item in (other if isinstance(other, list) else [other])],
    "push": _array_push,
    "pop": lambda v: v.pop() if v else None,
    "reverse": _array_reverse,
    "sort": _array_sort,
    "map": lambda v, fn: [fn(item) for item in v],
    "filter": lambda v, fn: [item for item in v if _js_truthy(fn(item))],
    "forEach": _array_for_each,
    "reduce": _reduce,
    "some": lambda v, fn: any(_js_truthy(fn(item)) for item in v),
    "every": lambda v, fn: all(_js_truthy(fn(item)) for item in v),
    "flat": lambda v: [item for sub in v
                       for item in (sub if isinstance(sub, list) else [sub])],
    "toString": _array_join,
}

OBJECT_METHODS: Dict[str, Callable[..., Any]] = {
    "hasOwnProperty": lambda v, key: key in v,
    "toString": _js_string,
}

NUMBER_METHODS: Dict[str, Callable[..., Any]] = {
    "toFixed": lambda v, digits=0: f"{float(v):.{int(digits)}f}",
    "toString": _number_to_string,
}


# ---------------------------------------------------------- standard library

_INT_PREFIX = re.compile(r"\s*([+-]?)(0[xX])?([0-9a-zA-Z]*)")
_FLOAT_PREFIX = re.compile(r"\s*([+-]?(?:Infinity|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))")


def _parse_int(text: Any, radix: Any = None) -> Any:
    sign, hex_prefix, body = _INT_PREFIX.match(_js_string(text)).groups()
    radix = int(_to_number(radix)) if radix else (16 if hex_prefix else 10)
    if hex_prefix and radix != 16:
        return 0  # "0x1f" in another base is the digit 0, then a stop at "x"
    if not 2 <= radix <= 36:
        return float("nan")
    digits = re.match(f"[{_DIGITS[:radix]}]*", body, re.IGNORECASE).group()
    return int(digits, radix) * (-1 if sign == "-" else 1) if digits else float("nan")


def _parse_float(text: Any) -> Any:
    match = _FLOAT_PREFIX.match(_js_string(text))
    return _maybe_int(float(match.group(1).replace("Infinity", "inf"))) if match else float("nan")


def _standard_library() -> Dict[str, Any]:
    return {
        "Math": {
            "floor": lambda x: int(math.floor(_to_number(x))),
            "ceil": lambda x: int(math.ceil(_to_number(x))),
            "round": lambda x: int(math.floor(_to_number(x) + 0.5)),
            "abs": lambda x: _maybe_int(abs(_to_number(x))),
            "min": lambda *xs: _maybe_int(min(map(_to_number, xs), default=math.inf)),
            "max": lambda *xs: _maybe_int(max(map(_to_number, xs), default=-math.inf)),
            "pow": lambda a, b: _maybe_int(_to_number(a) ** _to_number(b)),
            "sqrt": lambda x: _maybe_int(math.sqrt(_to_number(x))),
            "log": lambda x: math.log(_to_number(x)),
            "PI": math.pi,
            "E": math.e,
        },
        "JSON": {"parse": json.loads, "stringify": lambda value, *_: json.dumps(
            value, separators=(",", ":"), ensure_ascii=False)},
        "Object": {
            "keys": lambda obj: list(obj.keys()) if isinstance(obj, dict) else [],
            "values": lambda obj: list(obj.values()) if isinstance(obj, dict) else [],
            "entries": lambda obj: [[k, v] for k, v in obj.items()] if isinstance(obj, dict) else [],
            "assign": lambda target, *sources: (
                [target.update(s) for s in sources if isinstance(s, dict)], target)[1],
        },
        "Array": {"isArray": lambda value: isinstance(value, list)},
        "String": lambda *args: _js_string(args[0]) if args else "",
        "Number": lambda value=None: _maybe_int(_to_number(value)) if value is not None else 0,
        "Boolean": lambda value=None: _js_truthy(value),
        "parseInt": _parse_int,
        "parseFloat": _parse_float,
        "isNaN": lambda value: math.isnan(_to_number(value)),
        "Error": lambda message="": {"name": "Error", "message": _js_string(message)},
        "NaN": float("nan"),
        "Infinity": float("inf"),
        "console": {"log": lambda *args: None},
    }
