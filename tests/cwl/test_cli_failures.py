"""CLI failure semantics: exit codes, partial outputs and cache hygiene.

A ``permanentFail`` tool must exit 1 on all three CLIs, print no output object,
and — crucially — must not poison a ``--cachedir`` store: a failed run
stores nothing, a follow-up run re-fails (never replays a bogus success),
and successful runs still warm the cache normally.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.cli import main as parsl_cwl_main
from repro.cwl.cli import cwltool_main, toil_main
from repro.utils.yamlio import dump_yaml

FAILING_TOOL = {
    "cwlVersion": "v1.2",
    "class": "CommandLineTool",
    "baseCommand": ["bash", "-c", "echo made it half way; exit 3"],
    "inputs": {"tag": {"type": "string"}},
    "outputs": {"output": {"type": "stdout"}},
    "stdout": "half.txt",
}

SUCCEEDING_TOOL = {
    "cwlVersion": "v1.2",
    "class": "CommandLineTool",
    "baseCommand": "echo",
    "inputs": {"tag": {"type": "string", "inputBinding": {"position": 1}}},
    "outputs": {"output": {"type": "stdout"}},
    "stdout": "fine.txt",
}

PARTIAL_WORKFLOW = {
    "cwlVersion": "v1.2",
    "class": "Workflow",
    "inputs": {"tag": "string"},
    "outputs": {"final": {"type": "File", "outputSource": "explode/output"}},
    "steps": {
        "fine": {
            "run": dict(SUCCEEDING_TOOL),
            "in": {"tag": "tag"},
            "out": ["output"],
        },
        "explode": {
            "run": {
                "class": "CommandLineTool",
                "baseCommand": ["bash", "-c", "exit 9"],
                "inputs": {"source": {"type": "File", "inputBinding": {"position": 1}}},
                "outputs": {"output": {"type": "stdout"}},
                "stdout": "never.txt",
            },
            "in": {"source": "fine/output"},
            "out": ["output"],
        },
    },
}


@pytest.fixture(params=["cwltool", "toil", "parsl-cwl"])
def cli(request, tmp_path, config_dir, monkeypatch):
    """Run each CLI with per-test isolation, in ``tmp_path`` (the default
    ``--outdir``); returns (rc, stdout, stderr)."""
    monkeypatch.chdir(tmp_path)

    def invoke(argv, capsys):
        if request.param == "toil":
            argv = ["--jobStore", str(tmp_path / "jobstore")] + list(argv)
            rc = toil_main(argv)
        elif request.param == "parsl-cwl":
            argv = [str(config_dir / "local_threads.yml")] + list(argv)
            rc = parsl_cwl_main(argv)
        else:
            rc = cwltool_main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    invoke.name = request.param
    return invoke


def _write(tmp_path, name, doc):
    path = tmp_path / name
    dump_yaml(doc, path)
    return str(path)


def _cache_entries(cache_dir):
    entries = os.path.join(cache_dir, "entries")
    return sorted(os.listdir(entries)) if os.path.isdir(entries) else []


def test_permanent_fail_exits_1_and_prints_no_outputs(cli, tmp_path, capsys):
    doc = _write(tmp_path, "fail.cwl", FAILING_TOOL)
    rc, out, err = cli([doc, "--tag", "x"], capsys)
    assert rc == 1
    assert out.strip() == ""  # no output object on stdout
    assert "error" in err
    assert "exit code 3" in err


def test_permanent_fail_with_cachedir_exits_1_and_stores_nothing(cli, tmp_path, capsys):
    doc = _write(tmp_path, "fail.cwl", FAILING_TOOL)
    cache_dir = str(tmp_path / "cache")

    rc, _out, _err = cli(["--cachedir", cache_dir, doc, "--tag", "x"], capsys)
    assert rc == 1
    assert _cache_entries(cache_dir) == [], "a failed run must not poison the cache"

    # The follow-up warm run re-fails — it never replays a bogus success.
    rc, out, err = cli(["--cachedir", cache_dir, doc, "--tag", "x"], capsys)
    assert rc == 1
    assert out.strip() == ""
    assert "exit code 3" in err
    assert _cache_entries(cache_dir) == []


def test_success_with_cachedir_warms_and_replays_identically(cli, tmp_path, capsys):
    doc = _write(tmp_path, "fine.cwl", SUCCEEDING_TOOL)
    cache_dir = str(tmp_path / "cache")
    outdir_cold = str(tmp_path / "out-cold")
    outdir_warm = str(tmp_path / "out-warm")

    rc, cold_out, _ = cli(["--outdir", outdir_cold, "--cachedir", cache_dir, doc,
                           "--tag", "cached-run"], capsys)
    assert rc == 0
    assert len(_cache_entries(cache_dir)) == 1

    rc, warm_out, _ = cli(["--outdir", outdir_warm, "--cachedir", cache_dir, doc,
                           "--tag", "cached-run"], capsys)
    assert rc == 0
    cold = json.loads(cold_out)
    warm = json.loads(warm_out)
    assert cold["output"]["basename"] == warm["output"]["basename"] == "fine.txt"
    assert cold["output"]["size"] == warm["output"]["size"]
    with open(warm["output"]["path"]) as handle:
        assert handle.read() == "cached-run\n"
    # still exactly one entry: the warm run reused, it did not re-store
    assert len(_cache_entries(cache_dir)) == 1


def test_failed_and_successful_runs_share_a_store_without_interference(
        cli, tmp_path, capsys):
    failing = _write(tmp_path, "fail.cwl", FAILING_TOOL)
    fine = _write(tmp_path, "fine.cwl", SUCCEEDING_TOOL)
    cache_dir = str(tmp_path / "cache")

    assert cli(["--cachedir", cache_dir, fine, "--tag", "ok"], capsys)[0] == 0
    assert cli(["--cachedir", cache_dir, failing, "--tag", "ok"], capsys)[0] == 1
    # the failure neither removed nor corrupted the successful entry
    assert len(_cache_entries(cache_dir)) == 1
    rc, out, _ = cli(["--cachedir", cache_dir, fine, "--tag", "ok"], capsys)
    assert rc == 0
    assert json.loads(out)["output"]["basename"] == "fine.txt"


def test_workflow_partial_failure_exits_1_without_partial_outputs(
        cli, tmp_path, capsys):
    doc = _write(tmp_path, "partial.cwl", PARTIAL_WORKFLOW)
    outdir = str(tmp_path / "final-outputs")
    rc, out, err = cli(["--outdir", outdir, doc, "--tag", "upstream ran"], capsys)
    assert rc == 1
    assert out.strip() == ""
    assert "exit code 9" in err
    # nothing is left in --outdir by the failed run: no output, no job directory
    assert not os.path.isdir(outdir) or os.listdir(outdir) == []


def test_workflow_partial_failure_leaves_cache_unpoisoned(cli, tmp_path, capsys):
    """The completed upstream step may cache; the failed one must not."""
    doc = _write(tmp_path, "partial.cwl", PARTIAL_WORKFLOW)
    cache_dir = str(tmp_path / "cache")
    rc, _out, _err = cli(["--cachedir", cache_dir, doc, "--tag", "upstream ran"],
                         capsys)
    assert rc == 1
    entries = _cache_entries(cache_dir)
    assert len(entries) <= 1  # at most the successful upstream step

    # warm re-run still fails with the same failure class
    rc, out, err = cli(["--cachedir", cache_dir, doc, "--tag", "upstream ran"],
                       capsys)
    assert rc == 1
    assert out.strip() == ""
    assert "exit code 9" in err


def test_malformed_document_exits_1_naming_path_line_and_column(cli, tmp_path, capsys):
    broken = tmp_path / "broken.cwl"
    broken.write_text("class: CommandLineTool\ninputs: [a, b\nbaseCommand: echo\n")
    rc, out, err = cli([str(broken)], capsys)
    assert rc == 1 and out.strip() == ""
    assert err.strip().endswith(f"error: {broken}:3:12: invalid YAML (ParserError)")


def test_explicit_cachedir_wins_over_the_run_scoped_store(cli, tmp_path, capsys):
    doc = _write(tmp_path, "fine.cwl", SUCCEEDING_TOOL)
    cache_dir = str(tmp_path / "cache")
    run_dir = str(tmp_path / "run")
    rc, _out, _err = cli(["--cachedir", cache_dir, "--rundir", run_dir, doc,
                          "--tag", "stored"], capsys)
    assert rc == 0
    assert len(_cache_entries(cache_dir)) == 1
    assert _cache_entries(os.path.join(run_dir, "jobcache")) == []
