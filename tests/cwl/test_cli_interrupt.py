"""CLI interrupt handling: SIGTERM/SIGINT still tear down, runs stay resumable.

Runs each of the three CLIs in a real subprocess, interrupts it mid-job, and
asserts the contract: exit code 130, the in-flight tool subprocess is
reaped, tracked scratch directories are removed, the journal survives, and
``--resume`` finishes the run.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: Unique sleep duration so /proc scans cannot collide with anything else.
SLEEP_MARKER = "28731"

CONFIG = os.path.join(os.path.dirname(SRC_DIR), "examples", "configs",
                      "local_threads.yml")

CLI_STUBS = {
    "cwltool": ("import sys; from repro.cwl.cli import cwltool_main; "
                "sys.exit(cwltool_main(sys.argv[1:]))"),
    "toil": ("import sys; from repro.cwl.cli import toil_main; "
             "sys.exit(toil_main(sys.argv[1:]))"),
    "parsl-cwl": ("import sys; from repro.core.cli import main; "
                  f"sys.exit(main([{CONFIG!r}] + sys.argv[1:]))"),
}


def interruptible_workflow() -> dict:
    """echo → a step that sleeps forever until its gate file exists."""
    slow_script = f'test -e "$1" || sleep {SLEEP_MARKER}; wc -c < "$2"'
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string", "gate": "string"},
        "outputs": {"count": {"type": "File", "outputSource": "slow/out"}},
        "steps": {
            "shout": {"run": {"class": "CommandLineTool", "id": "shout-tool",
                              "baseCommand": "echo",
                              "inputs": {"message": {"type": "string",
                                                     "inputBinding": {"position": 1}}},
                              "outputs": {"out": "stdout"},
                              "stdout": "shout.txt"},
                      "in": {"message": "message"}, "out": ["out"]},
            "slow": {"run": {"class": "CommandLineTool", "id": "slow-tool",
                             "baseCommand": ["sh", "-c", slow_script, "sh"],
                             "inputs": {"gate": {"type": "string",
                                                 "inputBinding": {"position": 1}},
                                        "data": {"type": "File",
                                                 "inputBinding": {"position": 2}}},
                             "outputs": {"out": "stdout"},
                             "stdout": "count.txt"},
                     "in": {"gate": "gate", "data": "shout/out"},
                     "out": ["out"]},
        },
    }


def sleeping_tool_pids() -> list:
    """PIDs of live ``sleep <marker>`` processes."""
    pids = []
    for proc_dir in glob.glob("/proc/[0-9]*"):
        try:
            with open(os.path.join(proc_dir, "cmdline"), "rb") as handle:
                cmdline = handle.read().split(b"\0")
        except OSError:
            continue
        if b"sleep" in cmdline and SLEEP_MARKER.encode() in cmdline:
            pids.append(int(os.path.basename(proc_dir)))
    return pids


def wait_for(predicate, timeout_s=30.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    pytest.fail(f"timed out waiting for {message}")


@pytest.fixture(params=sorted(CLI_STUBS))
def staged_run(request, tmp_path):
    """Paths for one interruptible journalled run of each CLI."""
    # A crashed earlier run may have orphaned marker sleeps; they would make
    # the reap assertion below fail forever, so clear them first.
    for pid in sleeping_tool_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    doc = tmp_path / "wf.cwl"
    doc.write_text(json.dumps(interruptible_workflow()))
    order = tmp_path / "job.json"
    order.write_text(json.dumps({"message": "interrupt me",
                                 "gate": str(tmp_path / "gate")}))
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
               TMPDIR=str(scratch))
    return {"doc": doc, "order": order, "tmp": tmp_path, "stub": CLI_STUBS[request.param],
            "rundir": tmp_path / "run", "scratch": scratch, "env": env}


def launch(staged, *extra_args):
    return subprocess.Popen(
        [sys.executable, "-c", staged["stub"], "--rundir", str(staged["rundir"]),
         *extra_args, str(staged["doc"]), str(staged["order"])],
        env=staged["env"], cwd=str(staged["tmp"]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_interrupt_tears_down_and_leaves_a_resumable_run(staged_run, signum):
    # Leaving the block closes both pipes and waits for the process.
    with launch(staged_run) as proc:
        try:
            # Let the first step finish and the sleeper actually start.
            wait_for(lambda: sleeping_tool_pids(),
                     message="the slow step's sleep subprocess")
            journal = staged_run["rundir"] / "journal.jsonl"
            wait_for(journal.exists, message="the journal file")

            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

    assert proc.returncode == 130, stderr
    assert "interrupted" in stderr
    assert "--resume" in stderr  # the resume hint names the flags to use

    # The in-flight tool subprocess was reaped, not orphaned.
    wait_for(lambda: not sleeping_tool_pids(),
             message="the sleep subprocess to be reaped")
    # Tracked scratch directories were torn down by RuntimeContext.close().
    assert glob.glob(os.path.join(str(staged_run["scratch"]), "cwl-tmp-*")) == []
    # Nor is the run's root left in --outdir (by default the working directory).
    assert glob.glob(os.path.join(str(staged_run["tmp"]), "cwl-*")) == []

    # The journal survived with the completed step recorded.
    from repro.cwl.journal import node_states, read_journal

    states = node_states(read_journal(str(staged_run["rundir"])))
    assert any(state == "done" for state in states.values())

    # Open the gate and resume: the run completes without re-sleeping.
    (staged_run["tmp"] / "gate").write_text("open")
    resumed = launch(staged_run, "--resume")
    out, err = resumed.communicate(timeout=60)
    assert resumed.returncode == 0, err
    outputs = json.loads(out)
    with open(outputs["count"]["path"]) as handle:
        assert handle.read().strip() == "13"  # wc -c of "interrupt me\n"


#: Its own sleep duration, so the reap check sees only this test's tools.
QUEUED_MARKER = "28737"


def two_sleepers_workflow() -> dict:
    """Two independent steps; each touches its start marker, then sleeps."""
    tool = {"class": "CommandLineTool",
            "baseCommand": ["sh", "-c", f'touch "$1"; sleep {QUEUED_MARKER}', "sh"],
            "inputs": {"marker": {"type": "string", "inputBinding": {"position": 1}}},
            "outputs": {"out": "stdout"}}
    return {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"first": "string", "second": "string"},
        "outputs": {"a": {"type": "File", "outputSource": "a/out"},
                    "b": {"type": "File", "outputSource": "b/out"}},
        "steps": {name: {"run": dict(tool, id=f"{name}-tool", stdout=f"{name}.txt"),
                         "in": {"marker": source}, "out": ["out"]}
                  for name, source in (("a", "first"), ("b", "second"))},
    }


def queued_sleeper_pids() -> list:
    pids = []
    for proc_dir in glob.glob("/proc/[0-9]*"):
        try:
            with open(os.path.join(proc_dir, "cmdline"), "rb") as handle:
                cmdline = handle.read().split(b"\0")
        except OSError:
            continue
        if b"sleep" in cmdline and QUEUED_MARKER.encode() in cmdline:
            pids.append(int(os.path.basename(proc_dir)))
    return pids


def test_interrupted_parsl_cwl_cancels_the_task_queued_behind_the_running_one(tmp_path):
    """On a one-thread kernel the second step waits in the executor's queue.
    SIGTERM while the first runs: the queued one must never start (its marker
    is never made), and clearing the kernel then waits for nothing."""
    config = tmp_path / "one_thread.yml"
    config.write_text("executor: thread-pool\nmax_threads: 1\n")
    doc = tmp_path / "wf.cwl"
    doc.write_text(json.dumps(two_sleepers_workflow()))
    markers = [tmp_path / "first.started", tmp_path / "second.started"]
    order = tmp_path / "job.json"
    order.write_text(json.dumps({"first": str(markers[0]), "second": str(markers[1])}))
    stub = ("import sys; from repro.core.cli import main; "
            f"sys.exit(main([{str(config)!r}] + sys.argv[1:]))")
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen([sys.executable, "-c", stub, str(doc), str(order)],
                          env=env, cwd=str(tmp_path), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            wait_for(lambda: any(marker.exists() for marker in markers)
                     and queued_sleeper_pids(), message="the first step's sleep")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
            deadline = time.monotonic() + 10
            while queued_sleeper_pids() and time.monotonic() < deadline:
                time.sleep(0.1)
            leftover = queued_sleeper_pids()
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid in queued_sleeper_pids():
                os.kill(pid, signal.SIGKILL)

    assert proc.returncode == 130, stderr
    assert sum(marker.exists() for marker in markers) == 1, "the queued step started"
    assert leftover == [], "a tool outlived the interrupted run"
    assert glob.glob(str(tmp_path / "cwl-*")) == [], "the run root was left in --outdir"
