"""RuntimeContext scratch-directory teardown (idempotent, parent-pruning)."""

from __future__ import annotations

import gc
import os
import threading

import pytest

from repro.cwl.runtime import RuntimeContext


def test_cleanup_dir_removes_scratch_and_created_parents(tmp_path):
    staging = tmp_path / "staging" / "deep"
    context = RuntimeContext(tmpdir_prefix=str(staging / "tmp-"))
    scratch = context.make_tmpdir()
    assert os.path.isdir(scratch) and str(scratch).startswith(str(staging))

    context.cleanup_dir(scratch)
    assert not os.path.exists(scratch)
    # The empty staging parent the context itself created is pruned too
    # (a bare rmtree(..., ignore_errors=True) used to leave it behind).
    assert not os.path.exists(staging)


def test_cleanup_dir_keeps_nonempty_and_foreign_parents(tmp_path):
    staging = tmp_path / "staging"
    context = RuntimeContext(tmpdir_prefix=str(staging / "tmp-"))
    scratch = context.make_tmpdir()
    keeper = staging / "keep.txt"
    keeper.write_text("still needed")

    context.cleanup_dir(scratch)
    assert not os.path.exists(scratch)
    assert keeper.exists()

    # A parent this context did NOT create is never pruned, even when empty.
    foreign = tmp_path / "pre-existing"
    foreign.mkdir()
    other = RuntimeContext(tmpdir_prefix=str(foreign / "tmp-"))
    other.cleanup_dir(other.make_tmpdir())
    assert foreign.exists()


def test_close_reaps_all_tracked_scratch_dirs(tmp_path):
    context = RuntimeContext(tmpdir_prefix=str(tmp_path / "stage" / "tmp-"))
    dirs = [context.make_tmpdir() for _ in range(4)]
    context.close()
    assert not any(os.path.exists(d) for d in dirs)
    assert not (tmp_path / "stage").exists()


def test_close_is_idempotent(tmp_path):
    context = RuntimeContext(tmpdir_prefix=str(tmp_path / "stage" / "tmp-"))
    context.make_tmpdir()
    context.close()
    context.close()  # second close: nothing left, no error


def test_close_safe_under_concurrent_close(tmp_path):
    context = RuntimeContext(tmpdir_prefix=str(tmp_path / "stage" / "tmp-"))
    dirs = [context.make_tmpdir() for _ in range(32)]
    errors = []

    def closer():
        try:
            context.close()
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert not any(os.path.exists(d) for d in dirs)


def test_child_contexts_share_teardown_tracking(tmp_path):
    parent = RuntimeContext(tmpdir_prefix=str(tmp_path / "stage" / "tmp-"))
    child = parent.child(cores=4)
    scratch = child.make_tmpdir()
    parent.close()
    assert not os.path.exists(scratch)


def test_making_and_pruning_scratch_dirs_race_without_losing_the_parent(tmp_path):
    """One job's cleanup prunes the empty ``tmpdir_prefix`` parent the context
    made, while another job makes its scratch directory there: the make must
    never find the parent gone."""
    import sys

    context = RuntimeContext(tmpdir_prefix=str(tmp_path / "scratch" / "cwl-tmp-"))
    errors = []

    def churn():
        try:
            for _ in range(200):
                context.cleanup_dir(context.make_tmpdir())
        except OSError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert not (tmp_path / "scratch").exists()


def test_a_thread_reuses_one_scratch_directory_emptied_for_each_job(tmp_path):
    """``job_tmpdir``: one directory per thread in a context family, handed
    out empty to each job and removed by ``close``."""
    context = RuntimeContext(tmpdir_prefix=str(tmp_path / "stage" / "tmp-"))
    first = context.job_tmpdir()
    (tmp_path / "stage" / os.path.basename(first) / "left.txt").write_text("x")
    os.mkdir(os.path.join(first, "nested"))
    assert context.child(cores=2).job_tmpdir() == first
    assert os.listdir(first) == []

    other = []
    thread = threading.Thread(target=lambda: other.append(context.job_tmpdir()))
    thread.start()
    thread.join()
    assert other[0] != first

    context.close()
    assert not os.path.exists(first) and not os.path.exists(other[0])
    assert not (tmp_path / "stage").exists()
    # Removed behind the context's back: the thread's next job gets a new one.
    again = context.job_tmpdir()
    os.rmdir(again)
    assert os.path.isdir(context.job_tmpdir())
    context.close()


def test_a_family_dropped_without_close_takes_its_thread_directories_along(tmp_path):
    dropped = RuntimeContext(tmpdir_prefix=str(tmp_path / "tmp-")).child(cores=2).job_tmpdir()
    gc.collect()
    assert not os.path.exists(dropped)


def test_a_removed_run_root_is_not_made_again_by_a_late_job(tmp_path):
    """A job that starts after its run's root was removed (an interrupted
    run) fails instead of making the root and its node path again."""
    root = tmp_path / "root"
    root.mkdir()
    context = RuntimeContext(outdir=str(tmp_path), _job_dir=str(root))
    shard = context.node_context("scope/step[1]")
    assert shard.job_dir == str(root / "scope" / "step" / "1")
    assert shard.make_job_dir() == shard.job_dir
    (root / "scope" / "step" / "1" / "partial.txt").write_text("first attempt")
    assert shard.make_job_dir() == shard.job_dir  # a retry: emptied
    assert os.listdir(shard.job_dir) == []

    late = context.node_context("late")
    context.cleanup_dir(str(root))
    with pytest.raises(FileNotFoundError):
        late.make_job_dir()
    with pytest.raises(FileNotFoundError):
        context.node_context("scope/other")
    assert not root.exists()


def test_a_job_never_runs_in_the_outdir_of_its_context(tmp_path):
    """``outdir`` is where a run stages its outputs: a job built with it
    runs in a directory of its own and leaves what is there alone."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "canary.txt").write_text("canary\n")
    context = RuntimeContext(outdir=str(outdir), basedir=str(tmp_path / "jobs"))
    job_dir = context.make_job_dir()
    assert os.path.dirname(job_dir) == str(tmp_path / "jobs")
    assert os.listdir(outdir) == ["canary.txt"]
