#!/usr/bin/env python3
"""Drive the ``parsl-cwl`` command-line runner programmatically (paper §III-B).

Equivalent to running, from a shell::

    parsl-cwl examples/configs/local_threads.yml examples/cwl/echo.cwl --message='Hello'

Run from the repository root::

    python examples/parsl_cwl_cli_demo.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.core.cli import main as parsl_cwl_main

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    config = os.path.join(EXAMPLES_DIR, "configs", "local_threads.yml")
    tool = os.path.join(EXAMPLES_DIR, "cwl", "echo.cwl")
    outdir = tempfile.mkdtemp(prefix="repro-parsl-cwl-cli-")

    try:
        exit_code = parsl_cwl_main([
            "--outdir", outdir,
            config,
            tool,
            "--message", "Hello from the parsl-cwl runner",
        ])
        print("parsl-cwl exit code:", exit_code)
        print("output directory:", outdir, "->", sorted(os.listdir(outdir)))
    finally:
        shutil.rmtree(outdir)


if __name__ == "__main__":
    main()
