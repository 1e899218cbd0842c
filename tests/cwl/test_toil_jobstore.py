"""The Toil job store's append-only log: what a reopened store reads back."""

from __future__ import annotations

import json
import os

from repro.cwl.runners.toil.jobstore import FileJobStore


def run_to_done(store: FileJobStore, name: str):
    job = store.create_job(name)
    for state in ("issued", "running", "done"):
        store.update_job(job, state=state)
    return job


def log_lines(store_dir) -> list:
    with open(os.path.join(store_dir, "jobs", "jobs.jsonl"), "rb") as handle:
        return handle.read().splitlines(keepends=True)


def test_an_executed_job_appends_four_records_and_a_hit_one(tmp_path):
    with FileJobStore(str(tmp_path / "store")) as store:
        executed = run_to_done(store, "executed")
        hit = store.create_job("hit", state="done")
    records = [json.loads(line) for line in log_lines(tmp_path / "store")]
    assert [(r["job_id"], r["state"]) for r in records] == [
        (executed.job_id, "new"), (executed.job_id, "issued"),
        (executed.job_id, "running"), (executed.job_id, "done"), (hit.job_id, "done")]
    # A state change carries only what it changes.
    assert sorted(records[1]) == ["error", "job_id", "state", "updated_at"]
    assert os.listdir(tmp_path / "store" / "jobs") == ["jobs.jsonl"]


def test_a_reopened_store_continues_numbering(tmp_path):
    """Reopening used to start again at ``job-000001``, overwrite the earlier
    session's description and count it twice."""
    with FileJobStore(str(tmp_path / "store")) as store:
        first = run_to_done(store, "a")
    with FileJobStore(str(tmp_path / "store")) as store:
        second = run_to_done(store, "b")
        assert second.job_id != first.job_id
        assert [(job.job_id, job.name, job.state) for job in store.list_jobs()] == [
            (first.job_id, "a", "done"), (second.job_id, "b", "done")]
        assert store.stats() == {"done": 2, "files": 0}
    # Deleted ids are not handed out again either.
    with FileJobStore(str(tmp_path / "store")) as store:
        store.delete_job(second.job_id)
        third = store.create_job("c")
    assert third.job_id not in {first.job_id, second.job_id}
    with FileJobStore(str(tmp_path / "store")) as store:
        assert [job.name for job in store.list_jobs()] == ["a", "c"]
        assert store.stats() == {"done": 1, "new": 1, "files": 0}


def test_a_torn_final_record_is_skipped_and_the_rest_counted(tmp_path):
    with FileJobStore(str(tmp_path / "store")) as store:
        kept = run_to_done(store, "kept")
        torn = run_to_done(store, "torn")
    path = tmp_path / "store" / "jobs" / "jobs.jsonl"
    lines = log_lines(tmp_path / "store")
    # A crash mid-append: half of ``torn``'s ``done`` record reached the disk.
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])

    with FileJobStore(str(tmp_path / "store")) as store:
        assert {job.name: job.state for job in store.list_jobs()} == {
            "kept": "done", "torn": "running"}
        assert store.stats() == {"done": 1, "running": 1, "files": 0}
        # The next append starts on a line of its own.
        store.update_job(store.load_job(torn.job_id), state="done")
    with FileJobStore(str(tmp_path / "store")) as store:
        assert {job.job_id: job.state for job in store.list_jobs()} == {
            kept.job_id: "done", torn.job_id: "done"}


def test_a_second_store_sees_what_an_open_store_appended(tmp_path):
    with FileJobStore(str(tmp_path / "store")) as writer:
        job = run_to_done(writer, "a")
        failed = writer.create_job("b")
        writer.update_job(failed, state="failed", error="exit 1")
        reader = FileJobStore(str(tmp_path / "store"))
        assert [(j.job_id, j.state, j.error) for j in reader.list_jobs()] == [
            (job.job_id, "done", None), (failed.job_id, "failed", "exit 1")]
        assert reader.load_job(job.job_id).created_at == job.created_at
        reader.close()

