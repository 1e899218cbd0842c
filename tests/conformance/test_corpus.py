"""The conformance corpus: size, schema, determinism and materialisation."""

from __future__ import annotations

import pytest

from repro.cwl.errors import ValidationException
from repro.testing.corpus import (
    load_case,
    load_corpus,
    materialize_job_order,
)
from repro.utils.yamlio import dump_yaml


def test_corpus_has_at_least_25_cases(corpus):
    """Acceptance: the declarative corpus carries >= 25 cases."""
    assert len(corpus) >= 25


def test_corpus_ids_unique_and_sorted(corpus):
    ids = [case.id for case in corpus]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)


def test_every_case_states_an_expectation(corpus):
    """Each case either pins its outputs or declares the failure class."""
    for case in corpus:
        assert (case.expect.outputs is not None) or (case.expect.failure is not None), \
            f"case {case.id} has no expectation"


def test_corpus_covers_the_required_scenario_families(corpus):
    tags = {tag for case in corpus for tag in case.tags}
    for family in ("scatter", "subworkflow", "when", "expression", "stdin",
                   "stdout", "should-fail"):
        assert family in tags, f"no corpus case tagged {family!r}"


def test_tier1_subset_is_nonempty_and_strict(corpus, tier1_corpus):
    assert 0 < len(tier1_corpus) < len(corpus)
    assert all(case.tier1 for case in tier1_corpus)


def test_loading_is_deterministic(corpus):
    again = load_corpus()
    assert [case.id for case in again] == [case.id for case in corpus]


def test_materialize_writes_content_files(tmp_path):
    job = {
        "single": {"class": "File", "basename": "a.txt", "contents": "alpha\n"},
        "many": [{"class": "File", "basename": "b.txt", "contents": "beta\n"}],
        "plain": "untouched",
    }
    resolved = materialize_job_order(job, tmp_path / "inputs")
    assert (tmp_path / "inputs" / "a.txt").read_text() == "alpha\n"
    assert (tmp_path / "inputs" / "b.txt").read_text() == "beta\n"
    assert resolved["single"]["path"].endswith("a.txt")
    assert "contents" not in resolved["single"]
    assert resolved["plain"] == "untouched"
    # The original job order is not mutated.
    assert "contents" in job["single"]


def test_unknown_case_keys_are_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    dump_yaml({"process": {"class": "CommandLineTool"}, "jobs": {}}, path)
    with pytest.raises(ValidationException, match="unknown keys"):
        load_case(path)


def test_a_per_engine_overrides_key_is_rejected(tmp_path):
    """One expectation holds for every engine a case runs on."""
    path = tmp_path / "bad.yaml"
    dump_yaml({"process": {"class": "CommandLineTool"},
               "overrides": {"parsl": {"failure": "unsupported"}}}, path)
    with pytest.raises(ValidationException, match=r"unknown keys \['overrides'\]"):
        load_case(path)


def test_unknown_failure_class_is_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    dump_yaml({"process": {"class": "CommandLineTool"},
               "expect": {"failure": "spontaneous"}}, path)
    with pytest.raises(ValidationException, match="failure class"):
        load_case(path)


def test_missing_process_file_is_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    dump_yaml({"process": "no/such/file.cwl"}, path)
    with pytest.raises(ValidationException, match="does not exist"):
        load_case(path)


def test_duplicate_ids_are_rejected(tmp_path):
    for name in ("one.yaml", "two.yaml"):
        dump_yaml({"id": "same", "process": {"class": "CommandLineTool"},
                   "expect": {"failure": "invalid"}}, tmp_path / name)
    with pytest.raises(ValidationException, match="duplicate"):
        load_corpus(tmp_path)
