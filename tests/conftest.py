"""Shared pytest fixtures.

The fixtures here manage the two pieces of process-global state the library
has — the loaded Parsl DataFlowKernel and the shared simulated cluster — and
provide convenient paths to the example CWL documents and configurations.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.cluster.scheduler import reset_default_cluster
from repro.parsl.dataflow.dflow import DataFlowKernelLoader

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
CWL_DIR = EXAMPLES_DIR / "cwl"
CONFIG_DIR = EXAMPLES_DIR / "configs"


def pytest_configure(config):
    """Register the suite's marks; an unregistered (misspelt) one is an error."""
    config.addinivalue_line("markers", "slow: takes minutes rather than seconds")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnknownMarkWarning")


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def cwl_dir() -> Path:
    return CWL_DIR


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Guarantee no DataFlowKernel or default cluster leaks between tests."""
    yield
    try:
        DataFlowKernelLoader.clear()
    except Exception:
        pass
    try:
        reset_default_cluster()
    except Exception:
        pass


@pytest.fixture
def parsl_threads(tmp_path, monkeypatch):
    """A loaded thread-pool DataFlowKernel whose run dir and cwd are temporary."""
    monkeypatch.chdir(tmp_path)
    dfk = repro.load(repro.thread_config(max_threads=4, run_dir=str(tmp_path / "runinfo")))
    yield dfk
    repro.clear()


@pytest.fixture
def parsl_htex_local(tmp_path, monkeypatch):
    """A loaded local HighThroughputExecutor DataFlowKernel (2 workers)."""
    from repro.parsl.configs import htex_local_config

    monkeypatch.chdir(tmp_path)
    dfk = repro.load(htex_local_config(workers=2, run_dir=str(tmp_path / "runinfo")))
    yield dfk
    repro.clear()


@pytest.fixture
def small_image(tmp_path):
    """One small synthetic PNG on disk."""
    from repro.imaging.synthetic import generate_image
    from repro.imaging.png import write_png

    path = tmp_path / "input.png"
    write_png(path, generate_image(width=48, height=32, seed=7))
    return str(path)


@pytest.fixture
def image_batch(tmp_path):
    """A small batch of synthetic PNGs on disk."""
    from repro.imaging.synthetic import generate_image_files

    return generate_image_files(tmp_path / "batch", 4, width=48, height=32)
