#!/usr/bin/env python3
"""The unified execution API: one call, any engine.

Runs the same CWL CommandLineTool through every registered engine —
``reference`` (cwltool-like), ``toil`` (Toil-like) and ``parsl`` (the paper's
bridge) — and shows that the :class:`repro.api.ExecutionResult` is the same
shape for all of them, including the per-job event stream.

Run from the repository root::

    python examples/unified_api.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro import api

EXAMPLES_DIR = os.path.dirname(os.path.abspath(__file__))
ECHO_CWL = os.path.join(EXAMPLES_DIR, "cwl", "echo.cwl")


def main() -> None:
    print("registered engines:", ", ".join(api.list_engines()))

    hooks = api.ExecutionHooks(
        on_job_start=lambda event: print(f"  [hook] job {event.job!r} started"),
        on_job_end=lambda event: print(f"  [hook] job {event.job!r} finished "
                                       f"(ok={event.ok}, {event.duration_s:.3f}s)"),
    )

    # Every run keeps its files under ``workdir`` (``basedir``), removed at the end.
    cwd = os.getcwd()
    workdir = tempfile.mkdtemp(prefix="repro-unified-")
    os.chdir(workdir)
    try:
        for engine in ("reference", "toil", "parsl"):
            print(f"\nengine={engine!r}")
            result = api.run(ECHO_CWL, {"message": f"hello from {engine}"},
                             engine=engine, hooks=hooks, basedir=workdir)
            with open(result.outputs["output"]["path"], encoding="utf-8") as handle:
                print(f"  {result.summary()}")
                print(f"  output: {handle.read().strip()!r}")

        # Sessions amortise engine setup over many runs and support async submit.
        with api.Session(engine="reference", basedir=workdir) as session:
            handles = [session.submit(ECHO_CWL, {"message": f"async #{i}"})
                       for i in range(3)]
            print("\nasync results:",
                  [h.result().outputs["output"]["basename"] for h in handles])
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
