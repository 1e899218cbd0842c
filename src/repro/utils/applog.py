"""One append-only JSONL log: one writer, one reader, one commit rule.

The run journal (:mod:`repro.cwl.journal`) and the Toil job store
(:mod:`repro.cwl.runners.toil.jobstore`) keep their state as one JSON object
per line, appended and never rewritten, and read it back on open.

**Commit rule.**  A record is committed once its terminating newline is on
disk.  :func:`read_log` ignores an unterminated tail (what a crash
mid-append leaves, even a whole record lacking only its newline) and raises
:exc:`ValueError` naming ``path:line`` for a committed line that does not
parse.  Before its first append, :class:`AppendLog` truncates an
unterminated tail back to the last newline, so a crashed record is never
extended; a short write (a full disk) raises, and the next append cuts its
fragment off the same way.

**Writer.**  The ``O_APPEND`` descriptor is opened by the first append, each
record is one ``os.write``, and :meth:`AppendLog.close` is final: a later
append is dropped.  Each client fixes its fsync policy: the journal fsyncs
every record (resume trusts it after a power loss), the job store never does
(its per-task writes are the overhead the Toil-like runner is measured by,
and resume reads the journal and the job cache, not the job store).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional


class AppendLog:
    """Thread-safe appender of JSON records to one log file."""

    def __init__(self, path: str, *, fsync: bool) -> None:
        self.path = path
        self._fsync = fsync
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._closed = False

    def append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str).encode("utf-8") + b"\n"
        with self._lock:
            if self._closed:
                return
            if self._fd is None:
                self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
                end = os.fstat(self._fd).st_size
                if end and os.pread(self._fd, 1, end - 1) != b"\n":
                    # Only after a crash: cut the torn record off.
                    os.ftruncate(self._fd, os.pread(self._fd, end, 0).rfind(b"\n") + 1)
            if os.write(self._fd, line) < len(line):
                # A short write (disk full) tore this record: the next append
                # opens the log again and cuts it off.
                os.close(self._fd)
                self._fd = None
                raise OSError(f"short write to {self.path}: record torn")
            if self._fsync:
                os.fsync(self._fd)

    def close(self) -> None:
        """Close the log for good.  Idempotent."""
        with self._lock:
            self._closed = True
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def read_log(path: str) -> List[Dict[str, Any]]:
    """Every committed record of the log at ``path``, oldest first
    (:exc:`FileNotFoundError` when there is none)."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]
    records = []
    for number, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except ValueError:
            raise ValueError(f"corrupt log record at {path}:{number}") from None
    return records
