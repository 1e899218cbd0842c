"""Smoke tests that the shipped example scripts run end to end.

Each example is executed in a subprocess (as a user would run it) with small
parameters, from a scratch directory and with a temp directory of its own.
The scripts work in ``repro-*`` directories they make in the temp directory
and remove again, so the temp directory is left as it was: empty.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest


def run_example(repo_root, tmp_path, name, *args, timeout=240):
    temp = tmp_path / "tmp"
    temp.mkdir()
    result = subprocess.run(
        [sys.executable, str(repo_root / "examples" / name), *args],
        capture_output=True, text=True, timeout=timeout, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(repo_root / "src"), TMPDIR=str(temp)),
    )
    assert result.returncode == 0, f"{name} failed:\nSTDOUT:\n{result.stdout}\nSTDERR:\n{result.stderr}"
    assert sorted(os.listdir(temp)) == [], f"{name} left these in its temp directory"
    return result.stdout


def test_quickstart_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "quickstart.py")
    assert "hello.txt contains: Hello, World!" in stdout


def test_unified_api_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "unified_api.py")
    for engine in ("reference", "toil", "parsl"):
        assert f"output: 'hello from {engine}'" in stdout
    assert "async results: ['hello.txt', 'hello.txt', 'hello.txt']" in stdout


def test_image_pipeline_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "image_pipeline_parsl.py", "--images", "3",
                         "--size", "32")
    assert "processed 3 images" in stdout


def test_inline_python_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "inline_python_expressions.py")
    assert "Towards Combining The Python And Cwl Ecosystems" in stdout
    assert "rejected before execution" in stdout


def test_parsl_cwl_cli_demo_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "parsl_cwl_cli_demo.py")
    assert "parsl-cwl exit code: 0" in stdout
    assert "hello.txt" in stdout


@pytest.mark.slow
def test_runner_comparison_example(repo_root, tmp_path):
    stdout = run_example(repo_root, tmp_path, "runner_comparison.py", "--images", "2",
                         "--workers", "4", timeout=360)
    assert "parsl-cwl (ThreadPoolExecutor)" in stdout
