"""Tests for the Parsl File abstraction."""

from __future__ import annotations

import os

import pytest

from repro.parsl.data_provider.files import File


def test_plain_path_is_file_scheme(tmp_path):
    path = tmp_path / "data.txt"
    file = File(str(path))
    assert file.scheme == "file"
    assert file.filepath == str(path)
    assert file.filename == "data.txt"


def test_file_url_parsing():
    file = File("file:///data/input.csv")
    assert file.scheme == "file"
    assert file.path == "/data/input.csv"
    assert file.filename == "input.csv"


def test_remote_url_requires_staging():
    file = File("https://example.org/dataset.tar.gz")
    assert file.is_remote()
    with pytest.raises(ValueError):
        _ = file.filepath
    assert not file.exists()


def test_exists_and_size(tmp_path):
    path = tmp_path / "present.txt"
    path.write_text("hello")
    assert File(str(path)).exists()
    assert File(str(path)).size() == 5
    assert not File(str(tmp_path / "absent")).exists()


def test_fspath_protocol(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("1")
    file = File(str(path))
    assert os.path.exists(file)  # os functions accept File via __fspath__


def test_equality_and_hash():
    a = File("/tmp/a.txt")
    b = File("/tmp/a.txt")
    c = File("/tmp/c.txt")
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "/tmp/a.txt"  # not equal to plain strings


def test_idempotent_construction():
    original = File("/tmp/a.txt")
    wrapped = File(original)
    assert wrapped == original


def test_rejects_non_string():
    with pytest.raises(TypeError):
        File(123)  # type: ignore[arg-type]
