"""Append-only run journal for crash-safe resume.

A journalled run is any run with
:attr:`~repro.cwl.runtime.RuntimeContext.run_dir` set (every engine's
``execute`` goes through :func:`run_journalled`).  A run directory holds
everything needed to pick an interrupted execution back up: a
``journal.jsonl`` of state transitions and the run's private job-cache
store.  The journal is append-only JSONL — each record is one ``json.dumps``
line written and flushed atomically under a lock, so a crash (or SIGKILL)
mid-run leaves at worst a truncated *final* line, which :func:`read_journal`
skips.  Layout::

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

import hashlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

JOURNAL_NAME = "journal.jsonl"
CACHE_SUBDIR = "jobcache"
FORMAT_VERSION = 1


class RunJournal:
    """Thread-safe append-only JSONL journal for one run."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def record(self, kind: str, **fields: Any) -> None:
        """Append one record; the line is flushed+fsynced before returning."""
        entry = {"kind": kind, "t": time.time()}
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def node_state(self, node_id: str, state: str, **fields: Any) -> None:
        """Record a scheduler node transition (``running``/``done``/...)."""
        self.record("node", node=node_id, state=state, **fields)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def document_fingerprint(path: str) -> str:
    """sha1 of the process document, to refuse resuming a changed workflow."""
    digest = hashlib.sha1()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, JOURNAL_NAME)


def run_cache_dir(run_dir: str) -> str:
    return os.path.join(run_dir, CACHE_SUBDIR)


def open_run_dir(run_dir: str, *, process_path: str,
                 job_order: Dict[str, Any], engine: str) -> RunJournal:
    """Create/open a run directory and journal, appending the header record."""
    os.makedirs(run_dir, exist_ok=True)
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
    """``run(context)``, journalled when ``context.run_dir`` is set: open the
    run directory, write the header (an in-memory document, with no
    ``source_path`` to resume from, raises :exc:`ValueError` first), run under
    a child context whose ``journal`` is open, record the ``result`` (status,
    or ``failed`` with the error class) and close the journal."""
    if not context.run_dir:
        return run(context)
    if not process.source_path:
        raise ValueError(
            f"run_dir={context.run_dir!r} needs a process loaded from a file: "
            "resuming re-reads the document from its path")
    journal = open_run_dir(context.run_dir, process_path=process.source_path,
                           job_order=job_order, engine=engine)
    try:
        result = run(context.child(_journal=journal))
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
    """All intact records of a run directory's journal, oldest first.

    A torn final line (crash mid-append) is silently dropped; a torn line in
    the *middle* of the file means the journal is not append-only damage and
    raises.
    """
    path = journal_path(run_dir)
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1:
                break  # torn tail from a crash — expected, drop it
            raise ValueError(
                f"corrupt journal record at {path}:{index + 1}")
    return records


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
