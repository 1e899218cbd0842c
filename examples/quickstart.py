#!/usr/bin/env python3
"""Quickstart: import a CWL CommandLineTool into Parsl and run it (paper Listing 2).

Run from the repository root::

    python examples/quickstart.py

The script loads a local thread-pool Parsl configuration, imports the ``echo``
CommandLineTool from ``examples/cwl/echo.cwl`` as a :class:`repro.CWLApp`,
invokes it asynchronously, waits for the future and prints the output file.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import repro

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))
ECHO_CWL = os.path.join(EXAMPLES_DIR, "cwl", "echo.cwl")


def main() -> None:
    # 1. Load a Parsl configuration (the analogue of parsl.configs.local_threads).
    repro.load(repro.thread_config(max_threads=4))

    cwd = os.getcwd()
    workdir = tempfile.mkdtemp(prefix="repro-quickstart-")
    os.chdir(workdir)

    try:
        # 2. Import the CWL CommandLineTool definition as a Parsl app.
        echo = repro.CWLApp(ECHO_CWL)
        print("Imported tool:", echo.describe())

        # 3. Execute the CommandLineTool through Parsl; a future is returned.
        future = echo(message="Hello, World!", stdout="hello.txt")

        # 4. Wait for the future before reading the output.
        future.result()
        with open("hello.txt", "r", encoding="utf-8") as handle:
            print("hello.txt contains:", handle.read().strip())

        # Outputs are also available as DataFutures:
        for data_future in future.outputs:
            print("output file:", data_future.filepath, "->", data_future.result().filepath)
    finally:
        repro.clear()
        os.chdir(cwd)
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
