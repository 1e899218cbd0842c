"""Tests for the CWL type system."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cwl.errors import ValidationException
from repro.cwl.types import (
    build_directory_value,
    build_file_value,
    coerce_file_inputs,
    is_file_value,
    matches,
    normalize_type,
    value_to_path,
)


# ------------------------------------------------------------- normalisation


@pytest.mark.parametrize("spec,expected_kind", [
    ("string", "string"),
    ("int", "int"),
    ("boolean", "boolean"),
    ("File", "File"),
    ("Directory", "Directory"),
    ("Any", "Any"),
    ("stdout", "stdout"),
])
def test_primitive_types(spec, expected_kind):
    assert normalize_type(spec).kind == expected_kind


def test_optional_shorthand():
    ctype = normalize_type("string?")
    assert ctype.kind == "union"
    assert ctype.is_optional
    assert str(ctype) == "string?"


def test_array_shorthand():
    ctype = normalize_type("File[]")
    assert ctype.kind == "array"
    assert ctype.items.kind == "File"
    assert ctype.is_array


def test_structured_array():
    ctype = normalize_type({"type": "array", "items": "int"})
    assert ctype.kind == "array" and ctype.items.kind == "int"


def test_enum_type():
    ctype = normalize_type({"type": "enum", "symbols": ["a", "b/c"]})
    assert ctype.kind == "enum"
    assert ctype.symbols == ("a", "c")


def test_record_type():
    ctype = normalize_type({"type": "record", "fields": [
        {"name": "x", "type": "int"}, {"name": "y", "type": "string?"}]})
    assert ctype.kind == "record"
    assert set(ctype.fields) == {"x", "y"}


def test_union_list():
    ctype = normalize_type(["null", "string", "int"])
    assert ctype.kind == "union"
    assert ctype.is_optional


def test_union_single_member_collapses():
    assert normalize_type(["string"]).kind == "string"


def test_unknown_type_rejected():
    with pytest.raises(ValidationException):
        normalize_type("complex128")
    with pytest.raises(ValidationException):
        normalize_type({"type": "array"})  # missing items
    with pytest.raises(ValidationException):
        normalize_type(42)


def test_normalize_is_idempotent():
    ctype = normalize_type("string[]")
    assert normalize_type(ctype) is ctype


# ------------------------------------------------------------------ matching


@pytest.mark.parametrize("value,spec,expected", [
    ("hello", "string", True),
    (5, "int", True),
    (True, "int", False),            # bools are not ints in CWL
    (True, "boolean", True),
    (1.5, "double", True),
    (None, "string?", True),
    (None, "string", False),
    ([1, 2], "int[]", True),
    ([1, "x"], "int[]", False),
    ("a", {"type": "enum", "symbols": ["a", "b"]}, True),
    ("z", {"type": "enum", "symbols": ["a", "b"]}, False),
    ({"class": "File", "path": "/x"}, "File", True),
    ("/plain/path.txt", "File", True),
    (5, "Any", True),
    (None, "Any", False),
])
def test_matches(value, spec, expected):
    assert matches(value, spec) is expected


def test_matches_record():
    record_type = {"type": "record", "fields": [{"name": "a", "type": "int"},
                                                {"name": "b", "type": "string?"}]}
    assert matches({"a": 1}, record_type)
    assert not matches({"a": "nope"}, record_type)
    assert not matches("not a dict", record_type)


# --------------------------------------------------------------- file values


def test_build_file_value_populates_metadata(tmp_path):
    path = tmp_path / "data.tar.gz"
    path.write_bytes(b"x" * 10)
    value = build_file_value(str(path))
    assert value["class"] == "File"
    assert value["basename"] == "data.tar.gz"
    assert value["nameroot"] == "data.tar"
    assert value["nameext"] == ".gz"
    assert value["size"] == 10
    assert is_file_value(value)


def test_build_file_value_load_contents(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("abc")
    assert build_file_value(str(path), load_contents=True)["contents"] == "abc"


def test_build_directory_value_with_listing(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.txt").write_text("1")
    value = build_directory_value(str(tmp_path), listing=True)
    assert value["class"] == "Directory"
    names = {entry["basename"] for entry in value["listing"]}
    assert names == {"sub", "a.txt"}


def test_coerce_file_inputs_expands_minimal_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1")
    coerced = coerce_file_inputs({"class": "File", "path": str(path)})
    assert coerced["basename"] == "x.csv"
    assert coerced["size"] == 1


def test_coerce_file_inputs_recurses_into_lists():
    values = coerce_file_inputs([{"class": "File", "path": "/a"}, 5])
    assert values[0]["basename"] == "a"
    assert values[1] == 5


def test_value_to_path_variants(tmp_path):
    assert value_to_path({"class": "File", "path": "/x/y.txt"}) == "/x/y.txt"
    assert value_to_path({"class": "File", "location": "file:///z.txt"}) == "/z.txt"
    assert value_to_path("/direct/path") == "/direct/path"
    with pytest.raises(ValidationException):
        value_to_path(42)


# ------------------------------------------------------------------ property


_SIMPLE_TYPE_NAMES = st.sampled_from(["string", "int", "boolean", "File", "float", "null"])


@given(name=_SIMPLE_TYPE_NAMES)
def test_property_optional_always_accepts_none(name):
    ctype = normalize_type([name, "null"]) if name != "null" else normalize_type("null")
    assert matches(None, ctype)


@given(name=st.sampled_from(["string", "int", "boolean"]), depth=st.integers(0, 3))
def test_property_nested_arrays_round_trip_str(name, depth):
    spec: object = name
    for _ in range(depth):
        spec = {"type": "array", "items": spec}
    ctype = normalize_type(spec)
    rendered = str(ctype)
    assert rendered.count("[]") == depth
