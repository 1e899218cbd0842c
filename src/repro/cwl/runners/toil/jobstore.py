"""A file-based job store.

Toil persists every job description, its state transitions and all intermediate
files into a *job store* so that interrupted workflows can be resumed.  This
class reproduces the parts that matter for behaviour and for the performance
comparison:

* jobs live in one append-only log, ``jobs/jobs.jsonl``: a job's description
  is appended when the job is created, and every state change appends one
  short record (``job_id``, ``state``, ``updated_at``, ``error``) — an executed
  job appends four records (``new → issued → running → done``), a job-cache
  hit one, born ``done``,
* intermediate files are imported into the store as content-addressed copies
  and exported back out when a downstream job (or the final output) needs them,
* the store can be reopened and enumerated, which is what makes the Toil-like
  runner restartable: opening replays the log into an in-memory index of the
  latest state per job.

The log is a :mod:`repro.utils.applog` log that is never fsynced: one
``write()`` per record, no temp file and no rename, and that module's commit
rule says which records a crash leaves.  Per-job ``jobs/<id>.json``
documents written by older versions of this store are not read.

These per-job filesystem writes are the overhead that makes a job-store based
runner slower per task than Parsl's in-memory dataflow, which is the effect
visible in the paper's Figure 1.  One process appends to a store at a time:
job ids are numbered per store object, continuing after the highest id in the
log.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.cwl.jobcache import file_fingerprint, stage_file
from repro.utils.applog import AppendLog, read_log

#: The store's one job log, inside its ``jobs`` directory.
JOBS_LOG = "jobs.jsonl"


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


class FileJobStore:
    """Persist jobs and files under a single directory."""

    def __init__(self, store_dir: str) -> None:
        self.store_dir = os.path.abspath(store_dir)
        self.jobs_dir = os.path.join(self.store_dir, "jobs")
        self.files_dir = os.path.join(self.store_dir, "files")
        self.log_path = os.path.join(self.jobs_dir, JOBS_LOG)
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.files_dir, exist_ok=True)
        #: The store's ``st_dev``: importing a file from another device
        #: copies it instead of hardlinking.
        self.device = os.stat(self.files_dir).st_dev
        self._lock = threading.Lock()
        #: The latest record of every live job, and the number of jobs per
        #: state, both kept current by every append.
        self._jobs: Dict[str, StoredJob] = {}
        self._state_counts: Dict[str, int] = {}
        #: The highest job number in the log, deleted jobs included.
        self._last_id = 0
        try:
            self._file_count = len(os.listdir(self.files_dir))
        except OSError:
            self._file_count = 0
        self._log = AppendLog(self.log_path, fsync=False)
        try:
            records = read_log(self.log_path)
        except FileNotFoundError:
            records = []
        for record in records:
            job_id = record["job_id"]
            if record.get("deleted"):
                job = None
            elif "name" in record:
                job = StoredJob(**record)
            else:
                job = dataclasses.replace(
                    self._jobs[job_id], state=record["state"],
                    updated_at=record["updated_at"], error=record["error"])
            self._last_id = max(self._last_id, _job_number(job_id))
            self._index(job_id, job)

    def _index(self, job_id: str, job: Optional[StoredJob]) -> None:
        """Make ``job`` the latest record of ``job_id`` (None: deleted).
        Callers hold the lock or own the store."""
        previous = self._jobs.pop(job_id, None)
        if previous is not None:
            self._state_counts[previous.state] -= 1
        if job is not None:
            self._jobs[job_id] = job
            self._state_counts[job.state] = self._state_counts.get(job.state, 0) + 1

    # ----------------------------------------------------------------- jobs

    def create_job(self, name: str, requirements: Optional[Dict[str, Any]] = None,
                   payload: Optional[Dict[str, Any]] = None,
                   state: str = "new") -> StoredJob:
        """Create and persist a new job description: one record.

        ``state`` is the state the description is born in.  A job that will
        be issued starts as ``"new"`` and appends a record per transition; a
        job whose result was already known when it was described (a job-cache
        hit) is written once, as ``"done"``.
        """
        with self._lock:
            self._last_id += 1
            job_id = f"job-{self._last_id:06d}"
        job = StoredJob(job_id=job_id, name=name, state=state,
                        requirements=requirements or {}, payload=payload or {})
        self._write(job)
        return job

    def update_job(self, job: StoredJob, state: Optional[str] = None,
                   error: Optional[str] = None) -> StoredJob:
        """Persist a state change: one short record."""
        if state is not None:
            job.state = state
        if error is not None:
            job.error = error
        job.updated_at = time.time()
        self._write(job)
        return job

    def _write(self, job: StoredJob) -> None:
        """Persist ``job``'s current state: the one append per state change.

        The first write of a job appends its whole description; every later
        one only what a state change alters.
        """
        with self._lock:
            if job.job_id in self._jobs:
                record = {"job_id": job.job_id, "state": job.state,
                          "updated_at": job.updated_at, "error": job.error}
            else:
                record = asdict(job)
            self._log.append(record)
            self._index(job.job_id, dataclasses.replace(job))

    def load_job(self, job_id: str) -> StoredJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no job {job_id!r} in job store {self.store_dir}")
        return dataclasses.replace(job)

    def list_jobs(self) -> List[StoredJob]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [dataclasses.replace(job) for job in sorted(jobs, key=lambda j: j.job_id)]

    def delete_job(self, job_id: str) -> None:
        """Forget a job: one tombstone record.  Unknown ids are ignored."""
        with self._lock:
            if job_id not in self._jobs:
                return
            self._log.append({"job_id": job_id, "deleted": True})
            self._index(job_id, None)

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

    def has_file(self, file_id: str) -> bool:
        return os.path.exists(os.path.join(self.files_dir, file_id))

    # ------------------------------------------------------------- lifecycle

    def stats(self) -> Dict[str, int]:
        """Counts of jobs per state plus stored file count, from the index."""
        with self._lock:
            counts = {state: count for state, count in self._state_counts.items()
                      if count > 0}
            counts["files"] = self._file_count
        return counts

    def close(self) -> None:
        """Close the job log.  Idempotent; the store stays readable."""
        self._log.close()

    def __enter__(self) -> "FileJobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def destroy(self) -> None:
        """Close the store and remove it from disk entirely."""
        self.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _job_number(job_id: str) -> int:
    """``job-000042`` → 42; ids in another shape number nothing."""
    _, _, number = job_id.rpartition("-")
    return int(number) if number.isdigit() else 0
