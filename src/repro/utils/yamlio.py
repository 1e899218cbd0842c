"""YAML input/output helpers.

CWL documents, TaPS-style Parsl configurations and job orders are all YAML.
These helpers centralise safe loading (never ``yaml.load`` with arbitrary
constructors) and deterministic dumping so tests can compare round-tripped
documents byte-for-byte.

There is one loader class, :class:`Loader`.  It is PyYAML's safe loader on
the libyaml scanner/parser when PyYAML was built with libyaml (0.29 → 0.04 s
on a 240-step workflow) and on the pure-Python one otherwise.  The *constructor*
— what turns nodes into Python objects — is the same Python code either way,
so both produce equal objects and raise the same exception classes at the same
marks; only the wording of a syntax error's ``problem`` differs, which is why
:func:`describe_yaml_error` leaves it out.  ``Loader.__mro__`` tells which
parser is in use.
"""

from __future__ import annotations

import json
import os
from typing import Any, Union

import yaml

PathLike = Union[str, os.PathLike]

YAMLError = yaml.YAMLError

_MERGE_TAG = "tag:yaml.org,2002:merge"
_safe_construct_mapping = yaml.constructor.SafeConstructor.construct_mapping


class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # type: ignore[misc]
    """The safe loader, rejecting mappings that give one key twice.

    YAML says mapping keys are unique; PyYAML keeps the last one silently, so
    a tool with two ``baseCommand:`` lines would load and run the second.
    Keys brought in by a merge (``<<: *base``) may still be overridden.
    """

    def construct_mapping(self, node: Any, deep: bool = False) -> Any:
        # Copied before the base class folds ``<<`` merges into ``node.value``
        # (a node that is no mapping is the base class's to refuse).
        given = tuple(node.value)
        mapping = _safe_construct_mapping(self, node, deep)
        if len(mapping) < len(node.value):  # a repeat, or a merged key overridden
            first_seen: dict = {}
            for key_node, _ in given:
                if key_node.tag == _MERGE_TAG:
                    continue
                key = self.construct_object(key_node, deep=deep)
                if key in first_seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r} (first given on line "
                        f"{first_seen[key].start_mark.line + 1})",
                        key_node.start_mark)
                first_seen[key] = key_node
        return mapping


def describe_yaml_error(error: yaml.YAMLError, source: str) -> str:
    """``"<source>:<line>:<column>: ..."`` for a malformed document.

    The text is the same whichever parser found the error: a syntax error is
    named by its class (libyaml words the ``problem`` differently), an error
    from the shared constructor — a duplicate key — by its own words.
    """
    mark = getattr(error, "problem_mark", None)
    where = f"{source}:{mark.line + 1}:{mark.column + 1}" if mark is not None else source
    if isinstance(error, yaml.constructor.ConstructorError) and error.problem:
        return f"{where}: invalid YAML: {error.problem}"
    return f"{where}: invalid YAML ({type(error).__name__})"


def load_yaml(text: str) -> Any:
    """Parse YAML (or JSON — JSON is a YAML subset) from a string."""
    return yaml.load(text, Loader=Loader)  # noqa: S506  (a SafeLoader subclass)


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
        return yaml.load(handle, Loader=Loader)  # noqa: S506


def dump_yaml(obj: Any, path: PathLike | None = None) -> str:
    """Serialise ``obj`` to YAML with stable key ordering.

    If ``path`` is given the YAML text is also written to that file.
    """
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
