"""A file-based job store.

Toil persists every job description, its state transitions and all intermediate
files into a *job store* so that interrupted workflows can be resumed.  This
class reproduces the parts that matter for behaviour and for the performance
comparison:

* each job is a JSON document on disk, written when the job is created and
  rewritten on every state change,
* intermediate files are imported into the store as content-addressed copies
  and exported back out when a downstream job (or the final output) needs them,
* the store can be reopened and enumerated, which is what makes the Toil-like
  runner restartable.

These per-job filesystem writes are exactly the overhead that makes a job-store
based runner slower per task than Parsl's in-memory dataflow, which is the
effect visible in the paper's Figure 1.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.cwl.jobcache import file_fingerprint, stage_file
from repro.utils.ids import RunIdGenerator


@dataclass
class StoredJob:
    """One job description persisted in the job store."""

    job_id: str
    name: str
    state: str = "new"                      # new | issued | running | done | failed
    requirements: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


class FileJobStore:
    """Persist jobs and files under a single directory."""

    def __init__(self, store_dir: str) -> None:
        self.store_dir = os.path.abspath(store_dir)
        self.jobs_dir = os.path.join(self.store_dir, "jobs")
        self.files_dir = os.path.join(self.store_dir, "files")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.files_dir, exist_ok=True)
        self._ids = RunIdGenerator(start=1)
        self._lock = threading.Lock()
        # State counts are maintained incrementally (one scan on open for
        # restartability) so stats() stays O(1) however many jobs a
        # long-lived session accumulates.  Unreadable job documents (e.g.
        # truncated by a crash) are skipped, not fatal.
        self._state_counts: Dict[str, int] = {}
        self._file_count = 0
        for entry in sorted(os.listdir(self.jobs_dir)):
            if not entry.endswith(".json"):
                continue
            try:
                state = self.load_job(entry[:-5]).state
            except Exception:
                continue
            self._state_counts[state] = self._state_counts.get(state, 0) + 1
        try:
            self._file_count = len(os.listdir(self.files_dir))
        except OSError:
            self._file_count = 0

    # ----------------------------------------------------------------- jobs

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def create_job(self, name: str, requirements: Optional[Dict[str, Any]] = None,
                   payload: Optional[Dict[str, Any]] = None,
                   state: str = "new") -> StoredJob:
        """Create and persist a new job description: one write.

        ``state`` is the state the description is born in.  A job that will
        be issued starts as ``"new"`` and is rewritten on each transition; a
        job whose result was already known when it was described (a job-cache
        hit) is written once, as ``"done"``.
        """
        with self._lock:
            job_id = f"job-{self._ids.next():06d}"
        job = StoredJob(job_id=job_id, name=name, state=state,
                        requirements=requirements or {}, payload=payload or {})
        self._write(job)
        with self._lock:
            self._state_counts[job.state] = self._state_counts.get(job.state, 0) + 1
        return job

    def update_job(self, job: StoredJob, state: Optional[str] = None,
                   error: Optional[str] = None) -> StoredJob:
        """Persist a state change."""
        if state is not None and state != job.state:
            with self._lock:
                self._state_counts[job.state] = self._state_counts.get(job.state, 1) - 1
                self._state_counts[state] = self._state_counts.get(state, 0) + 1
            job.state = state
        if error is not None:
            job.error = error
        job.updated_at = time.time()
        self._write(job)
        return job

    def load_job(self, job_id: str) -> StoredJob:
        with open(self._job_path(job_id), "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return StoredJob(**data)

    def list_jobs(self) -> List[StoredJob]:
        jobs = []
        for entry in sorted(os.listdir(self.jobs_dir)):
            if entry.endswith(".json"):
                jobs.append(self.load_job(entry[:-5]))
        return jobs

    def delete_job(self, job_id: str) -> None:
        state: Optional[str] = None
        try:
            state = self.load_job(job_id).state
        except Exception:
            pass  # corrupt documents are still deletable
        try:
            os.unlink(self._job_path(job_id))
        except FileNotFoundError:
            return
        if state is not None:
            with self._lock:
                self._state_counts[state] = self._state_counts.get(state, 1) - 1

    def _write(self, job: StoredJob) -> None:
        path = self._job_path(job.job_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(job.to_json(), handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    # ---------------------------------------------------------------- files

    def import_file(self, path: str) -> str:
        """Import ``path`` into the store; returns the store file id.

        Zero-copy: the content-addressed store entry is a hardlink to the
        produced file whenever the filesystem allows it, with a copy as the
        fallback (see :func:`repro.cwl.jobcache.stage_file`).  The content
        digest comes from :func:`~repro.cwl.jobcache.file_fingerprint` (the
        same SHA-1, memoized on the inode), so a file the job cache has
        already hashed — every output of a cached or just-published job — is
        not read again.
        """
        file_id = f"{file_fingerprint(path)[:16]}-{os.path.basename(path)}"
        # stage_file reports "kept" when the file is already there (imported
        # before, or a concurrent importer won the race), so exactly one
        # importer counts the new file.
        if stage_file(path, os.path.join(self.files_dir, file_id),
                      overwrite=False) != "kept":
            with self._lock:
                self._file_count += 1
        return file_id

    def export_file(self, file_id: str, destination: str) -> str:
        """Stage a stored file out of the store to ``destination`` (hardlink,
        copy fallback)."""
        source = os.path.join(self.files_dir, file_id)
        stage_file(source, destination)
        return destination

    def file_path(self, file_id: str) -> str:
        return os.path.join(self.files_dir, file_id)

    def has_file(self, file_id: str) -> bool:
        return os.path.exists(os.path.join(self.files_dir, file_id))

    # ------------------------------------------------------------- lifecycle

    def stats(self) -> Dict[str, int]:
        """Counts of jobs per state plus stored file count.

        Served from incrementally maintained counters — constant time, where
        the previous implementation re-read every job document on each call
        (a growing per-run cost in long-lived sessions).
        """
        with self._lock:
            counts = {state: count for state, count in self._state_counts.items()
                      if count > 0}
            counts["files"] = self._file_count
        return counts

    def destroy(self) -> None:
        """Remove the job store from disk entirely."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
