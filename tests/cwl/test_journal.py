"""Unit tests for the append-only run journal (repro.cwl.journal)."""

from __future__ import annotations

import os

import pytest

from repro import api
from repro.cwl.journal import (
    RunJournal,
    document_fingerprint,
    journal_header,
    node_states,
    open_run_dir,
    read_journal,
    run_cache_dir,
)
from repro.cwl.runtime import RuntimeContext


@pytest.fixture
def process_doc(tmp_path):
    path = tmp_path / "tool.cwl"
    path.write_text('{"class": "CommandLineTool"}\n')
    return str(path)


def test_open_run_dir_writes_header_and_cache_dir(tmp_path, process_doc):
    run_dir = str(tmp_path / "run")
    journal = open_run_dir(run_dir, process_path=process_doc,
                           job_order={"x": 1}, engine="toil")
    journal.node_state("step1", "done")
    journal.close()
    assert os.path.isdir(run_cache_dir(run_dir))
    records = read_journal(run_dir)
    header = journal_header(records)
    assert header["process"] == os.path.abspath(process_doc)
    assert header["fingerprint"] == document_fingerprint(process_doc)
    assert header["job_order"] == {"x": 1}
    assert header["engine"] == "toil"
    assert node_states(records) == {"step1": "done"}


def test_records_survive_without_close_and_later_states_win(tmp_path):
    journal = RunJournal(str(tmp_path / "journal.jsonl"))
    journal.node_state("a", "running")
    journal.node_state("a", "done")
    journal.node_state("b", "running")
    # No close(): every record was flushed at append time (crash safety).
    records = read_journal(str(tmp_path))
    assert node_states(records) == {"a": "done", "b": "running"}
    journal.close()
    journal.record("after", x=1)  # append after close is a silent no-op
    assert len(read_journal(str(tmp_path))) == 3


def test_journal_header_requires_header_record(tmp_path):
    with pytest.raises(ValueError, match="no header"):
        journal_header([{"kind": "node", "node": "a"}])


def test_document_fingerprint_tracks_content(tmp_path):
    path = tmp_path / "doc.cwl"
    path.write_text("one")
    first = document_fingerprint(str(path))
    assert document_fingerprint(str(path)) == first
    path.write_text("two")
    assert document_fingerprint(str(path)) != first


def test_second_header_wins_for_resumed_runs(tmp_path, process_doc):
    run_dir = str(tmp_path / "run")
    open_run_dir(run_dir, process_path=process_doc, job_order={},
                 engine="reference").close()
    open_run_dir(run_dir, process_path=process_doc, job_order={},
                 engine="toil").close()
    header = journal_header(read_journal(run_dir))
    assert header["engine"] == "toil"


def test_a_run_dir_names_the_run_scoped_store_unless_a_store_is_given(tmp_path):
    run_dir = str(tmp_path / "run")
    assert RuntimeContext(run_dir=run_dir).job_cache_dir() == run_cache_dir(run_dir)
    assert RuntimeContext(run_dir=run_dir, cache_dir="elsewhere").job_cache_dir() \
        == "elsewhere"
    assert RuntimeContext(run_dir=run_dir, job_cache=False).job_cache_dir() is None


@pytest.mark.parametrize("engine", ["reference", "toil"])
def test_a_run_dir_needs_a_document_loaded_from_a_file(engine, tmp_path):
    marker = tmp_path / "ran"
    tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["touch", str(marker)], "inputs": {}, "outputs": {}}
    with pytest.raises(ValueError, match="run_dir"):
        api.run(tool, {}, engine=engine, run_dir=str(tmp_path / "run"),
                runtime_context=RuntimeContext(basedir=str(tmp_path / "jobs")))
    assert not marker.exists()
    assert not (tmp_path / "run").exists()
