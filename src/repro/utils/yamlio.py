"""YAML input/output helpers.

CWL documents, TaPS-style Parsl configurations and job orders are all YAML.
These helpers centralise safe loading (never ``yaml.load`` with arbitrary
constructors) and deterministic dumping so tests can compare round-tripped
documents byte-for-byte.

A text is read by one of two parsers, picked from the text itself, and both
give the object PyYAML would give, with one exception: an escaped UTF-16
surrogate pair (``"\\ud83d\\ude00"``, as :func:`json.dumps` writes any
character outside the Basic Multilingual Plane) in a JSON string or a
double-quoted YAML scalar is the one character it encodes, as JSON reads it
(RFC 8259 §7).  libyaml refuses such an escape and PyYAML's pure-Python
parser keeps its two halves as lone surrogates, so a document or job order
with an emoji in it would not load, or would load as a string that cannot be
encoded.  A lone surrogate escape loads as PyYAML reads it, and a backslash
in a plain or single-quoted scalar stays what it is.

* **JSON.**  CWL accepts JSON documents, and packed or generated workflows
  usually are JSON.  A text goes to :func:`json.loads` when it starts with
  ``{`` or ``[``, is printable ASCII plus line feed and carriage return, has
  no ``\\u`` escape of a lone UTF-16 surrogate (one that is not half of a
  high+low pair: that text goes to PyYAML, as every parser reads it
  differently), and has no white space between a key's closing quote and its
  colon (a YAML key ends on the line it starts on).  The parse
  keeps what YAML 1.1 makes of JSON: ``1e3``, ``1.5e3`` and ``1e-05`` stay
  strings (a YAML float has a point, and a signed exponent), ``NaN`` and
  ``Infinity`` too.  A text JSON refuses, one that repeats a key, and one
  with a key of over 170 characters (a YAML key must end within 1024
  characters of its start) go to PyYAML after all, so every error reads as
  it does from PyYAML.  On the benchmark's 240-step, 81 KB workflow
  ``load_yaml_file`` takes 2.4 ms this way against 29 ms through
  :class:`Loader` (0.6 ms of it is ``json.loads`` itself, the rest the
  checks above), and a process that reads only JSON never imports PyYAML.
* **YAML**, everything else: :class:`Loader`, PyYAML's safe loader on the
  libyaml scanner/parser when PyYAML was built with libyaml (0.20 → 0.03 s
  on that workflow read as YAML) and on the pure-Python one otherwise.  The
  *constructor* — what turns nodes into Python objects — is the same Python
  code either way, so both produce equal objects and raise the same
  exception classes at the same marks; only the wording of a syntax error's
  ``problem`` differs, which is why :func:`describe_yaml_error` leaves it
  out.  ``Loader.__mro__`` tells which parser is in use.  A text with an
  escaped surrogate pair in it is first scanned by the pure-Python scanner,
  and each pair in a double-quoted scalar written out as its character (so
  an error mark further along that line counts the pair as one column).

``yaml``, :class:`Loader` and :data:`YAMLError` are attributes of this module,
resolved (PEP 562, ``repro/_lazy.py``) from ``repro.utils._yamlloader`` the
first time one is asked for.
"""

from __future__ import annotations

import io
import json
import os
import re
from typing import TYPE_CHECKING, Any, Optional, Union

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    import yaml

    from repro.utils._yamlloader import Loader, YAMLError

__getattr__, __dir__ = lazy_exports(__name__, {
    "Loader": "repro.utils._yamlloader",
    "YAMLError": "repro.utils._yamlloader",
    "yaml": "repro.utils._yamlloader",
})

PathLike = Union[str, os.PathLike]

#: A text that starts like JSON goes to PyYAML after all if it has a character
#: outside these: YAML folds a raw ``\x85`` or ``\u2028`` in a string and
#: refuses DEL, and where JSON takes a tab between tokens the pure-Python
#: parser refuses it always and libyaml after a line break.
_JSON_CHARS = re.compile(r"[\n\r\x20-\x7e]*")
#: ... or a ``\u`` escape of a lone surrogate: one not in a high+low pair, which
#: JSON joins into the one code point it encodes (RFC 8259 §7).  A match with
#: group 3 is a lone one, with groups 1 and 2 a pair; the first branch steps
#: over escaped backslashes.
_SURROGATE_ESCAPE = re.compile(
    r"\\(?:\\|u([dD][89abAB][0-9a-fA-F]{2})\\u([dD][c-fC-F][0-9a-fA-F]{2})"
    r"|(u[dD][89a-fA-F]))")
#: ... or white space between a quote and a colon (a YAML key ends on its line).
_SPACE_BEFORE_COLON = re.compile(r'"\s+:')

#: The branch of YAML 1.1's float pattern (PyYAML's resolver) that a JSON
#: number can match; a JSON number that does not match it is a YAML string.
_YAML_FLOAT = re.compile(r"[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?\Z")

#: A YAML implicit key must end within 1024 characters of its start.  A key
#: character takes at most six in printable ASCII (``\uXXXX``), the quotes two.
_MAX_KEY_CHARS = (1024 - 2) // 6


def _json_float(text: str) -> Any:
    return float(text) if _YAML_FLOAT.match(text) else text


def _join_surrogate_pair(match: re.Match) -> str:
    if match.group(1) is None:
        return match.group(0)
    high, low = int(match.group(1), 16), int(match.group(2), 16)
    return chr(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))


def _join_quoted_surrogate_pairs(text: str) -> str:
    """``text`` with each escaped surrogate pair in a double-quoted scalar
    written out as the one character it encodes, for PyYAML to read.

    Only a text with such an escape somewhere is scanned for its
    double-quoted scalars (:func:`~repro.utils._yamlloader.double_quoted_spans`);
    a backslash in a plain or single-quoted scalar is no escape.
    """
    if not any(match.group(1) for match in _SURROGATE_ESCAPE.finditer(text)):
        return text
    from repro.utils._yamlloader import double_quoted_spans

    pieces, done = [], 0
    for start, end in double_quoted_spans(text):
        pieces += [text[done:start], _SURROGATE_ESCAPE.sub(_join_surrogate_pair, text[start:end])]
        done = end
    pieces.append(text[done:])
    return "".join(pieces)


def _load(text: str, name: Optional[str] = None) -> Any:
    """The document in ``text``: by JSON where that reads it as YAML would,
    else by PyYAML (as a stream named ``name`` when the text is a file's).
    """
    if (text.startswith(("{", "[")) and _JSON_CHARS.fullmatch(text)
            and not _SPACE_BEFORE_COLON.search(text)
            and not any(match.group(3) for match in _SURROGATE_ESCAPE.finditer(text))):
        for_yaml = []  # a mapping that repeats a key (to word the error) or has a long one

        def mapping(pairs: list) -> dict:
            obj = dict(pairs)
            if len(obj) < len(pairs) or max(map(len, obj), default=0) > _MAX_KEY_CHARS:
                for_yaml.append(obj)
            return obj

        try:
            document = json.loads(text, object_pairs_hook=mapping,
                                  parse_float=_json_float, parse_constant=str)
        except (ValueError, RecursionError):
            pass
        else:
            if not for_yaml:
                return document
    from repro.utils._yamlloader import load

    text = _join_quoted_surrogate_pairs(text)
    if name is None:
        return load(text)
    stream = io.StringIO(text)
    stream.name = name  # PyYAML's marks name the file, as when it reads one
    return load(stream)


def describe_yaml_error(error: yaml.YAMLError, source: str) -> str:
    """``"<source>:<line>:<column>: ..."`` for a malformed document.

    The text is the same whichever parser found the error: a syntax error is
    named by its class (libyaml words the ``problem`` differently), an error
    from the shared constructor — a duplicate key — by its own words.
    """
    from yaml.constructor import ConstructorError

    mark = getattr(error, "problem_mark", None)
    where = f"{source}:{mark.line + 1}:{mark.column + 1}" if mark is not None else source
    if isinstance(error, ConstructorError) and error.problem:
        return f"{where}: invalid YAML: {error.problem}"
    return f"{where}: invalid YAML ({type(error).__name__})"


def load_yaml(text: str) -> Any:
    """Parse YAML (or JSON — JSON is a YAML subset) from a string."""
    return _load(text)


def load_yaml_file(path: PathLike) -> Any:
    """Parse a YAML (or JSON) document from ``path``.

    Raises ``FileNotFoundError`` with the offending path for a clearer error
    than PyYAML's default stream error.
    """
    path = os.fspath(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise FileNotFoundError(f"No such YAML document: {path}") from exc
    with handle:
        text = handle.read()
    return _load(text, path)


def dump_yaml(obj: Any, path: PathLike | None = None) -> str:
    """Serialise ``obj`` to YAML with stable key ordering.

    If ``path`` is given the YAML text is also written to that file.
    """
    import yaml

    text = yaml.safe_dump(obj, sort_keys=True, default_flow_style=False)
    if path is not None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def dump_json(obj: Any, path: PathLike | None = None, indent: int = 2) -> str:
    """Serialise ``obj`` to JSON (used for CWL output objects, per the spec)."""
    text = json.dumps(obj, indent=indent, sort_keys=True, default=str)
    if path is not None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
