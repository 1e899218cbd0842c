"""Tests for repro.utils.yamlio."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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
