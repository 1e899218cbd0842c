"""Append-only run journal for crash-safe resume.

A journalled run is any run with
:attr:`~repro.cwl.runtime.RuntimeContext.run_dir` set (every engine's
``execute`` goes through :func:`run_journalled`).  A run directory holds
everything needed to pick an interrupted execution back up: a
``journal.jsonl`` of state transitions and the run's private job-cache
store.  The journal is a :mod:`repro.utils.applog` log, fsynced per record;
its commit rule says which records a crash leaves.  Layout::

    <run_dir>/
      journal.jsonl   # header record, then node/job transitions
      jobcache/       # content-addressed store scoped to this run

The first record is a ``{"kind": "header", ...}`` carrying the process path,
job order, engine and a fingerprint of the document, letting
:func:`repro.api.resume.resume` (and ``--resume`` on every CLI) re-run the
same workflow with the same store — :func:`resume_header` reads it back:
nodes that completed before the crash replay as cache hits, so only
incomplete nodes re-execute.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.cwl.outputs import run_in_root, stage_outputs
from repro.utils.applog import AppendLog, read_log
from repro.utils.hashing import hash_file

JOURNAL_NAME = "journal.jsonl"
CACHE_SUBDIR = "jobcache"
FORMAT_VERSION = 1


class RunJournal(AppendLog):
    """The append-only JSONL journal of one run, fsynced per record."""

    def __init__(self, path: str) -> None:
        super().__init__(path, fsync=True)

    def record(self, kind: str, **fields: Any) -> None:
        """Append one record, on disk before this returns."""
        self.append({"kind": kind, "t": time.time(), **fields})

    def node_state(self, node_id: str, state: str, **fields: Any) -> None:
        """Record a scheduler node transition (``running``/``done``/...)."""
        self.record("node", node=node_id, state=state, **fields)


def document_fingerprint(path: str) -> str:
    """sha1 of the process document, to refuse resuming a changed workflow."""
    return hash_file(path).partition("$")[2]


def journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, JOURNAL_NAME)


def run_cache_dir(run_dir: str) -> str:
    return os.path.join(run_dir, CACHE_SUBDIR)


def open_run_dir(run_dir: str, *, process_path: str,
                 job_order: Dict[str, Any], engine: str) -> RunJournal:
    """Create/open a run directory and journal, appending the header record."""
    os.makedirs(run_cache_dir(run_dir), exist_ok=True)
    journal = RunJournal(journal_path(run_dir))
    journal.record(
        "header",
        version=FORMAT_VERSION,
        process=os.path.abspath(process_path),
        fingerprint=document_fingerprint(process_path),
        job_order=job_order,
        engine=engine,
        pid=os.getpid(),
    )
    return journal


def run_journalled(context: Any, process: Any, job_order: Dict[str, Any],
                   engine: str, run: Callable[[Any], Any]) -> Any:
    """``run(context)`` in a root of its own, its result's outputs staged into
    the context's ``outdir`` (:func:`~repro.cwl.outputs.run_in_root`) and,
    when ``context.run_dir`` is set, journalled: open the run directory,
    write the header (an in-memory document, with no ``source_path`` to
    resume from, raises :exc:`ValueError` first), run under a child context
    whose ``journal`` is open, record the ``result`` (status, or ``failed``
    with the error class) and close the journal."""
    def staged(result: Any, destination: str) -> Any:
        result.outputs = stage_outputs(result.outputs, destination)
        return result

    if not context.run_dir:
        return run_in_root(context, run, staged)
    if not process.source_path:
        raise ValueError(
            f"run_dir={context.run_dir!r} needs a process loaded from a file: "
            "resuming re-reads the document from its path")
    journal = open_run_dir(context.run_dir, process_path=process.source_path,
                           job_order=job_order, engine=engine)
    try:
        result = run_in_root(context.child(_journal=journal), run, staged)
    except BaseException as exc:
        journal.record("result", status="failed", error=str(exc),
                       error_class=type(exc).__name__)
        raise
    else:
        journal.record("result", status=result.status)
        return result
    finally:
        journal.close()


def resume_header(run_dir: str) -> Dict[str, Any]:
    """The header of ``run_dir``'s journal, once its document is known to be
    unchanged (else :exc:`FileNotFoundError` / :exc:`ValueError`)."""
    header = journal_header(read_journal(run_dir))
    process_path = header["process"]
    if not os.path.exists(process_path):
        raise FileNotFoundError(
            f"cannot resume {run_dir!r}: process document {process_path!r} "
            "no longer exists")
    if document_fingerprint(process_path) != header.get("fingerprint"):
        raise ValueError(
            f"cannot resume {run_dir!r}: {process_path!r} changed since the "
            "original run (document fingerprint mismatch); start a fresh run")
    return header


def read_journal(run_dir: str) -> List[Dict[str, Any]]:
    """Every committed record of a run directory's journal, oldest first
    (see :func:`repro.utils.applog.read_log`)."""
    return read_log(journal_path(run_dir))


def journal_header(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The header record (first ``kind=="header"`` seen, latest run wins last)."""
    header: Optional[Dict[str, Any]] = None
    for record in records:
        if record.get("kind") == "header":
            header = record
    if header is None:
        raise ValueError("journal has no header record")
    return header


def node_states(records: List[Dict[str, Any]]) -> Dict[str, str]:
    """Final recorded state per node id (later records win)."""
    states: Dict[str, str] = {}
    for record in records:
        if record.get("kind") == "node" and "node" in record:
            states[str(record["node"])] = str(record.get("state", ""))
    return states
