#!/usr/bin/env python3
"""Inline Python expressions in CWL documents (paper §V, Listings 5 and 6).

Demonstrates the two uses the paper shows:

1. an ``InlinePythonRequirement`` expression that rewrites a tool argument
   (capitalising every word of the input message before it reaches ``echo``), and
2. a per-input ``validate:`` rule that rejects a job order whose data file is not
   a CSV — before the tool ever runs.

Run from the repository root::

    python examples/inline_python_expressions.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

import repro
from repro.cwl.errors import InputValidationError
from repro.core.inline_python import InlinePythonRequirementError

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))
CWL_DIR = os.path.join(EXAMPLES_DIR, "cwl")


def main() -> None:
    repro.load(repro.thread_config(max_threads=2))
    cwd = os.getcwd()
    workdir = tempfile.mkdtemp(prefix="repro-inline-python-")
    os.chdir(workdir)

    try:
        # --- Listing 5: expression rewriting an argument -----------------------
        capitalize = repro.CWLApp(os.path.join(CWL_DIR, "capitalize_python.cwl"))
        future = capitalize(message="towards combining the python and cwl ecosystems",
                            stdout="capitalized.txt")
        future.result()
        with open("capitalized.txt", encoding="utf-8") as handle:
            print("capitalised message:", handle.read().strip())

        # --- Listing 6: validate: rule on an input ------------------------------
        with open("measurements.csv", "w", encoding="utf-8") as handle:
            handle.write("sample,value\nA,1\nB,2\n")
        with open("notes.txt", "w", encoding="utf-8") as handle:
            handle.write("not a csv\n")

        validate_csv = repro.CWLApp(os.path.join(CWL_DIR, "validate_csv.cwl"))

        good = validate_csv(data_file="measurements.csv", stdout="validated.txt")
        good.result()
        print("CSV accepted; first line:",
              open("validated.txt", encoding="utf-8").readline().strip())

        bad = validate_csv(data_file="notes.txt", stdout="rejected.txt")
        try:
            bad.result()
        except (InputValidationError, InlinePythonRequirementError, Exception) as exc:
            print("non-CSV rejected before execution:", type(exc).__name__, "-", exc)
    finally:
        repro.clear()
        os.chdir(cwd)
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
