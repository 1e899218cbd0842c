"""Tests for repro.utils.yamlio."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from repro.testing.generator import generate_workflow, layered_dag_structure
from repro.utils import yamlio
from repro.utils.yamlio import dump_json, dump_yaml, load_yaml, load_yaml_file


def test_load_yaml_parses_mappings_and_lists():
    doc = load_yaml("a: 1\nb:\n  - x\n  - y\n")
    assert doc == {"a": 1, "b": ["x", "y"]}


def test_load_yaml_accepts_json():
    assert load_yaml('{"a": [1, 2]}') == {"a": [1, 2]}


def test_load_yaml_file_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_yaml_file(tmp_path / "missing.yml")


def test_yaml_round_trip_through_file(tmp_path):
    payload = {"z": 1, "a": {"nested": [1, 2, 3]}, "flag": True}
    path = tmp_path / "doc.yml"
    dump_yaml(payload, path)
    assert load_yaml_file(path) == payload


def test_dump_yaml_sorts_keys():
    text = dump_yaml({"b": 1, "a": 2})
    assert text.index("a:") < text.index("b:")


def test_dump_json_writes_file_and_sorts_keys(tmp_path):
    path = tmp_path / "out.json"
    text = dump_json({"b": 1, "a": 2}, path)
    assert path.read_text() == text
    assert text.index('"a"') < text.index('"b"')


def test_dump_json_stringifies_unknown_types():
    class Odd:
        def __str__(self):
            return "odd-value"

    assert "odd-value" in dump_json({"x": Odd()})


def test_load_yaml_file_on_a_directory_names_the_path(tmp_path):
    with pytest.raises(FileNotFoundError, match=f"No such YAML document: {tmp_path}"):
        load_yaml_file(tmp_path)


# ------------------------------------------------------------ the one loader

REPO_ROOT = Path(__file__).resolve().parents[2]

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__,
    reason="PyYAML built without libyaml: the loader in use *is* the pure-Python one")

#: name -> (text, 1-based line and column of the error, its class)
MALFORMED = {
    "unclosed flow sequence": (
        "class: CommandLineTool\ninputs: [a, b\nbaseCommand: echo\n",
        (3, 12), "ParserError"),
    "tab indentation": ("class: CommandLineTool\n\tinputs: {}\n", (2, 1), "ScannerError"),
    "undefined alias": ("class: CommandLineTool\ninputs: *nope\n", (2, 9), "ComposerError"),
}


def _documents_on_disk():
    found = []
    for directory in ("examples", "conformance/corpus"):
        for suffix in ("*.cwl", "*.yml", "*.yaml"):
            found.extend(sorted((REPO_ROOT / directory).rglob(suffix)))
    return found


def _dag_document(nodes: int, seed: int) -> str:
    """The benchmark's 240-step document shape: ``echo`` sources, ``head`` joins."""
    steps = {}
    for name, deps in layered_dag_structure(nodes, seed=seed):
        tool = {"class": "CommandLineTool",
                "baseCommand": ["head", "-q", "-c", "24"] if deps else ["echo", name],
                "inputs": {f"f{i}": {"type": "File", "inputBinding": {"position": i}}
                           for i in range(len(deps))} if deps
                else {"text": {"type": "string", "inputBinding": {"position": 1}}},
                "stdout": f"{name}.txt", "outputs": {"out": {"type": "stdout"}}}
        steps[name] = {"run": tool, "out": ["out"],
                       "in": {f"f{i}": f"{dep}/out" for i, dep in enumerate(deps)}
                       if deps else {"text": "msg"}}
    return json.dumps({"cwlVersion": "v1.2", "class": "Workflow",
                       "inputs": {"msg": "string"}, "outputs": {}, "steps": steps})


def test_loader_is_the_safe_constructor_on_the_fastest_parser_available():
    assert issubclass(yamlio.Loader, yaml.constructor.SafeConstructor)
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(yamlio.Loader, expected)
    with pytest.raises(yaml.constructor.ConstructorError):
        yamlio.load_yaml("!!python/object/apply:os.getcwd []")


@needs_libyaml
def test_loader_parity_on_every_document_we_ship_generate_or_benchmark():
    texts = {str(path): path.read_text(encoding="utf-8") for path in _documents_on_disk()}
    assert len(texts) >= 50
    for seed in range(50):
        generated = generate_workflow(seed)
        texts[f"gen-{seed}.doc"] = yaml.safe_dump(generated.doc)
        texts[f"gen-{seed}.job"] = json.dumps(generated.job)
    texts["dag-240"] = _dag_document(240, seed=7)
    for name, text in texts.items():
        assert yamlio.load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader), name


@needs_libyaml
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_fail_alike_under_both_parsers(name):
    text, where, error_class = MALFORMED[name]
    marks = []
    for loader in (yaml.SafeLoader, yamlio.Loader):
        with pytest.raises(yaml.MarkedYAMLError) as caught:
            yaml.load(text, Loader=loader)
        assert type(caught.value).__name__ == error_class
        marks.append((caught.value.problem_mark.line + 1,
                      caught.value.problem_mark.column + 1))
    assert marks == [where, where]


def _error_texts():
    """What :func:`describe_yaml_error` says about each bad document."""
    texts = {}
    documents = {name: text for name, (text, _, _) in MALFORMED.items()}
    documents["duplicate key"] = "baseCommand: echo\ninputs: {}\nbaseCommand: rm\n"
    for name, text in documents.items():
        try:
            yamlio.load_yaml(text)
        except yamlio.YAMLError as exc:
            texts[name] = yamlio.describe_yaml_error(exc, "tool.cwl")
    return texts


def test_error_text_names_position_and_is_the_same_on_the_pure_python_parser():
    texts = _error_texts()
    assert texts == {
        "unclosed flow sequence": "tool.cwl:3:12: invalid YAML (ParserError)",
        "tab indentation": "tool.cwl:2:1: invalid YAML (ScannerError)",
        "undefined alias": "tool.cwl:2:9: invalid YAML (ComposerError)",
        "duplicate key": "tool.cwl:3:1: invalid YAML: found duplicate key "
                         "'baseCommand' (first given on line 1)",
    }
    # The same module imported where PyYAML has no libyaml: one loader,
    # chosen once at import, and every text above unchanged.
    script = ("import sys, json, yaml\n"
              "vars(yaml).pop('CSafeLoader', None)\n"
              "sys.path.insert(0, %r)\n"
              "import test_yamlio as t\n"
              "assert t.yamlio.Loader.__mro__[1] is yaml.SafeLoader\n"
              "print(json.dumps(t._error_texts()))\n" % str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == texts


def test_duplicate_keys_are_rejected_but_merge_keys_may_be_overridden():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'a'"):
        yamlio.load_yaml('{"a": 1, "b": 2, "a": 3}')
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'z'"):
        yamlio.load_yaml("base: &b {x: 1}\nd:\n  <<: *b\n  z: 1\n  z: 2\n")
    merged = yamlio.load_yaml("base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  x: 5\n")
    assert merged["d"] == {"x": 5, "y": 2}


def test_no_document_we_ship_repeats_a_key():
    # (Generator output is built as dicts, which cannot repeat one.)
    for path in _documents_on_disk():
        load_yaml_file(path)


# ------------------------------------------- JSON text read as YAML would read it

def _read(load, text):
    """``("value", document)``, or ``("error", describe_yaml_error text)``."""
    try:
        return "value", load(text)
    except yaml.YAMLError as exc:
        return "error", yamlio.describe_yaml_error(exc, "doc.json")


#: An escaped backslash (kept as it is), or an escaped UTF-16 surrogate pair.
_ESCAPED_PAIR = re.compile(r"\\\\|\\u(d[89ab][0-9a-f]{2})\\u(d[c-f][0-9a-f]{2})", re.IGNORECASE)


def _unescape_pair(match):
    if match.group(1) is None:
        return match.group(0)
    high, low = int(match.group(1), 16), int(match.group(2), 16)
    return chr(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))


def _as_yaml(text):
    """What the YAML path makes of ``text``: the loader ``load_yaml`` falls back on.

    With the one stated exception: an escaped surrogate pair is the one
    character it encodes, as JSON reads it, so the pair is written out as
    that character before YAML reads the text.  (Not ``yaml.SafeLoader``
    where PyYAML has libyaml: the two parsers differ on the pair itself.)
    """
    return yaml.load(_ESCAPED_PAIR.sub(_unescape_pair, text), Loader=yamlio.Loader)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(st.lists(_json_values), st.dictionaries(st.text(), _json_values)),
       ensure_ascii=st.booleans(),
       layout=st.sampled_from([{}, {"separators": (",", ":")}, {"indent": 2}]))
# A key too long for a YAML implicit key sends the text to PyYAML, with a pair in it.
@example(value={"\U00010000": None, "0" * 171: None}, ensure_ascii=True, layout={})
def test_json_texts_load_exactly_as_yaml_would(value, ensure_ascii, layout):
    text = json.dumps(value, ensure_ascii=ensure_ascii, **layout)
    assert _read(load_yaml, text) == _read(_as_yaml, text)


#: name -> (text, what YAML makes of it: a value or a describe_yaml_error text).
#: On each row ``json.loads`` reads the text differently or not at all.
JSON_DIVERGENCES = {
    "exponent without a point, or without a sign":
        ("[1e3, 1E+3, 1e-05, 1.5e3, 1.5e+3, -0.0]",
         ("value", ["1e3", "1E+3", "1e-05", "1.5e3", 1500.0, -0.0])),
    "NaN and Infinity": ("[NaN, Infinity, -Infinity]",
                         ("value", ["NaN", "Infinity", "-Infinity"])),
    "raw NEL in a string": ('["a\x85b"]', ("value", ["a b"])),
    "raw DEL in a string": ('["a\x7fb"]', ("error", "doc.json: invalid YAML (ReaderError)")),
    "repeated key": ('{"a": 1, "a": 2}',
                     ("error", "doc.json:1:10: invalid YAML: found duplicate key 'a' "
                               "(first given on line 1)")),
    "tab after a line break": ('{"a": 1}\n\t',
                               ("error", "doc.json:2:1: invalid YAML (ScannerError)")),
    "key on a line of its own": ('{"a"\n: 1}',
                                 ("error", "doc.json:2:1: invalid YAML (ParserError)")),
    "key of 1023 characters": ('{"%s": 1}' % ("k" * 1023,),
                               ("error", "doc.json:1:1027: invalid YAML (ParserError)")),
}


@pytest.mark.parametrize("name", sorted(JSON_DIVERGENCES))
def test_json_texts_that_json_reads_otherwise_load_as_yaml_does(name):
    text, expected = JSON_DIVERGENCES[name]
    assert _read(load_yaml, text) == _read(_as_yaml, text) == expected
    assert _read(json.loads, text) != expected


#: name -> a JSON text with ``\\u`` escapes of surrogates.
SURROGATE_TEXTS = {
    # What json.dumps writes for an emoji, with an escaped backslash to step over.
    "pair": json.dumps(["\U0001F600", {"k\U0001F600": "\\ud83d"}]),
    "lone high": '["\\ud83d"]',
    "lone low": '["\\ude00"]',
    "two highs": '["\\ud83d\\ud83d"]',
    "low after an escaped backslash": '["\\\\ud83d\\ude00"]',
}


def _surrogate_readings():
    """name -> ``repr`` of what ``load_yaml``, then the YAML loader alone, make of it."""
    return {name: [repr(_read(load_yaml, text)),
                   repr(_read(lambda t: yaml.load(t, Loader=yamlio.Loader), text))]
            for name, text in SURROGATE_TEXTS.items()}


def test_an_escaped_surrogate_pair_loads_as_its_character_on_either_parser():
    # libyaml refuses the escape and the pure-Python parser keeps two lone
    # surrogates; load_yaml reads the pair by JSON, as the one character.
    # A lone surrogate escape is still PyYAML's to read or refuse.
    readings = _surrogate_readings()
    script = ("import sys, json, yaml\n"
              "vars(yaml).pop('CSafeLoader', None)\n"
              "sys.path.insert(0, %r)\n"
              "import test_yamlio as t\n"
              "assert t.yamlio.Loader.__mro__[1] is yaml.SafeLoader\n"
              "print(json.dumps(t._surrogate_readings()))\n" % str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    for found in (readings, json.loads(out.stdout)):
        ours, _ = found.pop("pair")
        assert ours == repr(("value", ["\U0001F600", {"k\U0001F600": "\\ud83d"}]))
        for name, (ours, yaml_reading) in found.items():
            assert ours == yaml_reading, name


#: name -> (a YAML text with ``\\u`` escapes of surrogates, the value it loads
#: as, or ``None`` where that is what the YAML loader alone makes of it).
YAML_SURROGATE_TEXTS = {
    "pair in a double-quoted scalar": ('msg: "\\ud83d\\ude00"\n', {"msg": "\U0001F600"}),
    "pairs in a quoted key and a flow sequence":
        ('"k\\ud83d\\ude00": ["a\\ud83d\\ude00b", "\\\\"]\n',
         {"k\U0001F600": ["a\U0001F600b", "\\"]}),
    "a plain scalar beside a pair": ('a: x\\ud83d\\ude00\nb: "\\ud83d\\ude00"\n',
                                     {"a": "x\\ud83d\\ude00", "b": "\U0001F600"}),
    "plain scalar": ("msg: \\ud83d\\ude00\n", None),
    "single-quoted scalar": ("msg: '\\ud83d\\ude00'\n", None),
    "lone high": ('msg: "\\ud83d"\n', None),
    "low after an escaped backslash": ('msg: "\\\\ud83d\\ude00"\n', None),
}


def _yaml_surrogate_readings():
    """name -> ``repr`` of what ``load_yaml``, then the YAML loader alone, make of it."""
    return {name: [repr(_read(load_yaml, text)),
                   repr(_read(lambda t: yaml.load(t, Loader=yamlio.Loader), text))]
            for name, (text, _) in YAML_SURROGATE_TEXTS.items()}


def test_an_escaped_surrogate_pair_in_a_yaml_text_loads_as_its_character_on_either_parser():
    # The pair is joined inside a double-quoted scalar only: in a plain or
    # single-quoted one a backslash is itself, and a lone escape is still
    # PyYAML's to read or refuse.
    script = ("import sys, json, yaml\n"
              "vars(yaml).pop('CSafeLoader', None)\n"
              "sys.path.insert(0, %r)\n"
              "import test_yamlio as t\n"
              "assert t.yamlio.Loader.__mro__[1] is yaml.SafeLoader\n"
              "print(json.dumps(t._yaml_surrogate_readings()))\n" % str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    for found in (_yaml_surrogate_readings(), json.loads(out.stdout)):
        for name, (ours, yaml_reading) in found.items():
            expected = YAML_SURROGATE_TEXTS[name][1]
            assert ours == (yaml_reading if expected is None else repr(("value", expected))), name


def test_a_json_document_read_from_a_file_equals_its_yaml_reading(tmp_path):
    text = _dag_document(40, seed=3)
    path = tmp_path / "dag.cwl"
    path.write_text(text)
    assert load_yaml_file(path) == load_yaml(text) == _as_yaml(text)
    # A text that starts like JSON but is YAML: read by PyYAML from the file.
    path.write_text('{"a": 1, "a": 2}\n')
    with pytest.raises(yaml.constructor.ConstructorError) as caught:
        load_yaml_file(path)
    assert f'in "{path}", line 1, column 10' in str(caught.value)


def test_a_document_is_read_from_a_pipe(tmp_path):
    # ``repro-cwltool wf.cwl <(make_job)`` gives a FIFO: it is read once.
    fifo = tmp_path / "job.yml"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("message: hi\n",), daemon=True)
    writer.start()
    try:
        assert load_yaml_file(fifo) == {"message": "hi"}
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
