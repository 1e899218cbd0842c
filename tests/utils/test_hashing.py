"""Tests for repro.utils.hashing."""

from __future__ import annotations

import hashlib

from hypothesis import given, strategies as st

from repro.utils.hashing import hash_bytes, hash_file, hash_obj


def test_hash_bytes_format_and_value():
    data = b"hello world"
    expected = hashlib.sha1(data).hexdigest()
    assert hash_bytes(data) == f"sha1${expected}"


def test_hash_bytes_other_algorithm():
    assert hash_bytes(b"x", algorithm="md5").startswith("md5$")


def test_hash_file_matches_hash_bytes(tmp_path):
    path = tmp_path / "data.bin"
    payload = b"a" * 100_000 + b"b" * 3
    path.write_bytes(payload)
    assert hash_file(path) == hash_bytes(payload)


def test_hash_obj_dict_order_independent():
    a = {"x": 1, "y": [1, 2, {"z": 3}]}
    b = {"y": [1, 2, {"z": 3}], "x": 1}
    assert hash_obj(a) == hash_obj(b)


def test_hash_obj_differs_for_different_values():
    assert hash_obj({"x": 1}) != hash_obj({"x": 2})


def test_hash_obj_handles_unpicklable_values():
    # A lambda cannot be pickled by the stdlib pickler; repr fallback must kick in.
    value = {"fn": lambda x: x}
    assert isinstance(hash_obj(value), str)


@given(st.dictionaries(st.text(max_size=8),
                       st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
                       max_size=6))
def test_hash_obj_is_deterministic(payload):
    assert hash_obj(payload) == hash_obj(dict(payload))


@given(st.lists(st.integers(), max_size=10))
def test_hash_obj_lists_vs_tuples_equal_canonicalisation(items):
    # Lists and tuples canonicalise identically (documented behaviour).
    assert hash_obj(items) == hash_obj(tuple(items))


def _distinct_equal_strings():
    a = "x" * 40
    b = "".join(["x"] * 40)
    assert a == b and a is not b
    return a, b


def test_hash_obj_is_a_function_of_values_not_object_identity():
    """Equal values hash equal whatever objects they share.

    With pickle's memo on, the second occurrence of an object pickled as a
    back-reference, so ``(a, a)`` and ``(a, b)`` differed for equal strings
    ``a is not b`` — and a job key differed between the run that primed a
    cache store and the run that read it.
    """
    a, b = _distinct_equal_strings()
    assert hash_obj((a, a)) == hash_obj((a, b)) == hash_obj((b, a))
    assert hash_obj([a, [a, {"k": a}]]) == hash_obj([a, [b, {"k": "x" * 40}]])
    assert hash_obj({"p": a, "q": a}) == hash_obj({"p": a, "q": b})
    assert hash_obj({"p": (a, a), "q": [a]}) == hash_obj({"q": [b], "p": (b, a)})
    shared = ("File", "x.txt", a)
    assert hash_obj((("f0", shared), ("f1", shared))) == \
        hash_obj((("f0", ("File", "x.txt", a)), ("f1", ("File", "x.txt", b))))
    # ... while different values still hash differently.
    assert hash_obj((a, a)) != hash_obj((a, a + "y"))
    assert hash_obj((1, True, 1.0)) != hash_obj((1, 1, 1))


def test_hash_obj_self_referential_value_still_hashes():
    loop: list = []
    loop.append(loop)
    assert isinstance(hash_obj(loop), str)
