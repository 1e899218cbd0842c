"""The ``parsl-cwl`` command-line runner (paper §III-B).

Usage, matching the paper::

    parsl-cwl config.yml echo.cwl inputs.yml
    parsl-cwl config.yml echo.cwl --message='Hello'

The first positional argument is the TaPS-style YAML Parsl configuration, the
second is the CWL document, and inputs come either from a YAML job order file
or from ``--name value`` / ``--name=value`` flags.  The CWL output object is
printed as JSON.  Everything else — the run-option flags (``--cachedir``,
``--retries``, ``--timeout``, ``--on-error``, ``--rundir`` / ``--resume``,
...), SIGTERM handling and the exit-130 epilogue — is the body the other two
CLIs share (:mod:`repro.cwl.cli`); execution routes through the
:mod:`repro.api` registry's ``"parsl"`` engine.  As on the other two,
the tool runs in a job directory of its own and its output files are staged
into ``--outdir`` (default: the working directory).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.cwl.cli import _runner_main


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``parsl-cwl``."""

    def add_engine_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("config", type=os.path.abspath,
                            help="YAML Parsl configuration")

    def engine_options(args: argparse.Namespace,
                       _cleanup: contextlib.ExitStack) -> Dict[str, Any]:
        return dict(config=args.config)

    return _runner_main("parsl-cwl", "Run a CWL document on Parsl (paper §III-B)",
                        "parsl", add_engine_args, engine_options, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
