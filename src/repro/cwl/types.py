"""The CWL type system.

CWL types appear in documents in several syntactic forms:

* primitive names: ``null``, ``boolean``, ``int``, ``long``, ``float``,
  ``double``, ``string``, ``File``, ``Directory``,
* shorthand modifiers: ``string?`` (optional = union with null) and
  ``string[]`` (array of string),
* structured forms: ``{type: array, items: ...}``, ``{type: enum, symbols: [...]}``,
  ``{type: record, fields: [...]}``,
* unions: a YAML list of any of the above,
* the special tool-output pseudo-types ``stdout`` and ``stderr``.

:func:`normalize_type` converts any of these into a canonical
:class:`CWLType` tree; :func:`matches` checks a Python value against a
canonical type (used for job-order validation); :func:`build_file_value` and
friends construct the ``class: File`` dictionaries CWL uses as file values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cwl.errors import ValidationException

PRIMITIVE_TYPES = {
    "null", "boolean", "int", "long", "float", "double", "string", "File", "Directory",
    "Any", "stdout", "stderr",
}


@dataclass(frozen=True)
class CWLType:
    """Canonical representation of a CWL type.

    ``kind`` is one of the primitive names, ``array``, ``enum``, ``record`` or
    ``union``.  For arrays ``items`` holds the element type; for enums
    ``symbols`` holds the permitted strings; for records ``fields`` maps field
    names to types; for unions ``members`` holds the alternatives.
    """

    kind: str
    items: Optional["CWLType"] = None
    symbols: Sequence[str] = ()
    fields: Optional[Dict[str, "CWLType"]] = None
    members: Sequence["CWLType"] = ()
    name: Optional[str] = None

    @property
    def is_optional(self) -> bool:
        """True when the type is a union that admits ``null``."""
        if self.kind == "null":
            return True
        if self.kind == "union":
            return any(m.kind == "null" for m in self.members)
        return False

    @property
    def is_file(self) -> bool:
        if self.kind == "File":
            return True
        if self.kind == "union":
            return any(m.kind == "File" for m in self.members)
        return False

    @property
    def is_array(self) -> bool:
        if self.kind == "array":
            return True
        if self.kind == "union":
            return any(m.kind == "array" for m in self.members)
        return False

    def __str__(self) -> str:
        if self.kind == "array":
            return f"{self.items}[]"
        if self.kind == "union":
            inner = [str(m) for m in self.members]
            if len(inner) == 2 and "null" in inner:
                other = next(i for i in inner if i != "null")
                return f"{other}?"
            return " | ".join(inner)
        if self.kind == "enum":
            return f"enum({', '.join(self.symbols)})"
        if self.kind == "record":
            return f"record({', '.join(self.fields or {})})"
        return self.kind


NULL = CWLType("null")


def normalize_type(spec: Any) -> CWLType:
    """Convert any CWL type syntax into a canonical :class:`CWLType`."""
    if isinstance(spec, CWLType):
        return spec
    if spec is None:
        return NULL
    if isinstance(spec, str):
        return _normalize_string_type(spec)
    if isinstance(spec, list):
        members = tuple(normalize_type(member) for member in spec)
        if len(members) == 1:
            return members[0]
        return CWLType("union", members=members)
    if isinstance(spec, dict):
        return _normalize_dict_type(spec)
    raise ValidationException(f"unrecognised CWL type specification: {spec!r}")


def _normalize_string_type(spec: str) -> CWLType:
    spec = spec.strip()
    if spec.endswith("?"):
        inner = normalize_type(spec[:-1])
        return CWLType("union", members=(inner, NULL))
    if spec.endswith("[]"):
        return CWLType("array", items=normalize_type(spec[:-2]))
    if spec in PRIMITIVE_TYPES:
        return CWLType(spec)
    raise ValidationException(f"unknown CWL type name {spec!r}")


def _normalize_dict_type(spec: Dict[str, Any]) -> CWLType:
    kind = spec.get("type")
    if kind == "array":
        if "items" not in spec:
            raise ValidationException("array type requires an 'items' field")
        return CWLType("array", items=normalize_type(spec["items"]))
    if kind == "enum":
        symbols = tuple(str(s).split("/")[-1] for s in spec.get("symbols", ()))
        if not symbols:
            raise ValidationException("enum type requires non-empty 'symbols'")
        return CWLType("enum", symbols=symbols, name=spec.get("name"))
    if kind == "record":
        fields: Dict[str, CWLType] = {}
        raw_fields = spec.get("fields", [])
        if isinstance(raw_fields, dict):
            raw_fields = [{"name": k, **(v if isinstance(v, dict) else {"type": v})}
                          for k, v in raw_fields.items()]
        for f in raw_fields:
            fields[str(f["name"]).split("/")[-1]] = normalize_type(f["type"])
        return CWLType("record", fields=fields, name=spec.get("name"))
    if isinstance(kind, (str, list, dict)):
        # e.g. {"type": "string?", "doc": ...} or nested structured type
        return normalize_type(kind)
    raise ValidationException(f"unrecognised structured type: {spec!r}")


# --------------------------------------------------------------------------- values


def is_file_value(value: Any) -> bool:
    """Whether ``value`` is a CWL File object (``{"class": "File", ...}``)."""
    return isinstance(value, dict) and value.get("class") == "File"


def is_directory_value(value: Any) -> bool:
    return isinstance(value, dict) and value.get("class") == "Directory"


def matches(value: Any, cwl_type: Union[CWLType, Any]) -> bool:
    """Check whether a Python/JSON value conforms to ``cwl_type``."""
    ctype = normalize_type(cwl_type)
    kind = ctype.kind
    if kind == "Any":
        return value is not None
    if kind == "null":
        return value is None
    if kind == "boolean":
        return isinstance(value, bool)
    if kind in ("int", "long"):
        return isinstance(value, int) and not isinstance(value, bool)
    if kind in ("float", "double"):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "string":
        return isinstance(value, str)
    if kind in ("stdout", "stderr"):
        # Tool output pseudo-types: the collected value is a File.
        return is_file_value(value)
    if kind == "File":
        return is_file_value(value) or isinstance(value, str)
    if kind == "Directory":
        return is_directory_value(value) or isinstance(value, str)
    if kind == "enum":
        return isinstance(value, str) and value in ctype.symbols
    if kind == "array":
        return isinstance(value, list) and all(matches(v, ctype.items) for v in value)
    if kind == "record":
        if not isinstance(value, dict):
            return False
        return all(matches(value.get(name), ftype) or ftype.is_optional
                   for name, ftype in (ctype.fields or {}).items())
    if kind == "union":
        return any(matches(value, member) for member in ctype.members)
    raise ValidationException(f"cannot check value against unknown type kind {kind!r}")


def file_value_of_path(path: str) -> Dict[str, Any]:
    """The fields of a CWL File value that its path alone gives: no ``stat``."""
    path = os.path.abspath(os.fspath(path))
    basename = os.path.basename(path)
    nameroot, nameext = os.path.splitext(basename)
    return {
        "class": "File",
        "path": path,
        "location": f"file://{path}",
        "basename": basename,
        "nameroot": nameroot,
        "nameext": nameext,
        "dirname": os.path.dirname(path),
    }


def build_file_value(path: str, load_contents: bool = False,
                     stats: Optional[Dict[str, os.stat_result]] = None) -> Dict[str, Any]:
    """Construct a CWL File value dictionary for a local path.

    The ``os.stat`` that gives its ``size`` is also kept in ``stats``, by the
    value's ``path``, when a dict is given.
    """
    value = file_value_of_path(path)
    path = value["path"]
    try:
        stat = os.stat(path)
    except (OSError, ValueError):  # what os.path.exists takes for "missing"
        return value
    value["size"] = stat.st_size
    if stats is not None:
        stats[path] = stat
    if load_contents:
        with open(path, "rb") as handle:
            value["contents"] = handle.read(64 * 1024).decode("utf-8", errors="replace")
    return value


def build_directory_value(path: str, listing: bool = False) -> Dict[str, Any]:
    """Construct a CWL Directory value dictionary for a local path."""
    path = os.path.abspath(os.fspath(path))
    value: Dict[str, Any] = {
        "class": "Directory",
        "path": path,
        "location": f"file://{path}",
        "basename": os.path.basename(path),
    }
    if listing and os.path.isdir(path):
        entries: List[Dict[str, Any]] = []
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isdir(full):
                entries.append(build_directory_value(full, listing=False))
            else:
                entries.append(build_file_value(full))
        value["listing"] = entries
    return value


def coerce_file_inputs(value: Any,
                       stats: Optional[Dict[str, os.stat_result]] = None) -> Any:
    """Complete each File or Directory value given by its ``path`` alone
    (no ``basename``), through lists, keeping every field it had; any other
    value, a plain path string included, is returned as it is.  The
    ``os.stat`` of each File it builds goes into ``stats``
    (:func:`build_file_value`).
    """
    if isinstance(value, dict) and value.get("class") in ("File", "Directory"):
        if "path" in value and "basename" not in value:
            rebuilt = build_file_value(value["path"], stats=stats) if value["class"] == "File" \
                else build_directory_value(value["path"])
            rebuilt.update({k: v for k, v in value.items() if k not in rebuilt})
            return rebuilt
        return value
    if isinstance(value, list):
        return [coerce_file_inputs(v, stats) for v in value]
    return value


def value_to_path(value: Any) -> str:
    """Extract a filesystem path from a File value or a plain string."""
    if is_file_value(value) or is_directory_value(value):
        if "path" in value:
            return value["path"]
        location = value.get("location", "")
        if location.startswith("file://"):
            return location[len("file://"):]
        raise ValidationException(f"File value has no usable path: {value!r}")
    if isinstance(value, (str, os.PathLike)):
        return os.fspath(value)
    raise ValidationException(f"expected a File value or path, got {type(value).__name__}")
