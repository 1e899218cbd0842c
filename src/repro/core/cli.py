"""The ``parsl-cwl`` command-line runner (paper §III-B).

Usage, matching the paper::

    parsl-cwl config.yml echo.cwl inputs.yml
    parsl-cwl config.yml echo.cwl --message='Hello'

The first positional argument is the TaPS-style YAML Parsl configuration, the
second is the CWL CommandLineTool, and inputs come either from a YAML job order
file or from ``--name value`` / ``--name=value`` flags.  The CWL output object
is printed as JSON.  Execution routes through the :mod:`repro.api` registry's
``"parsl"`` engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.cwl.cli import parse_cli_inputs
from repro.cwl.schema import Process
from repro.utils.yamlio import dump_json, load_yaml_file


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``parsl-cwl``."""
    argv = list(sys.argv[1:] if argv is None else argv)

    # Separate "--name value" input overrides (everything after the positionals).
    positionals = []
    index = 0
    options = {"--outdir": None, "--quiet": False}
    while index < len(argv) and len(positionals) < 3:
        token = argv[index]
        if token in ("-h", "--help"):
            _print_help()
            return 0
        if token == "--quiet":
            options["--quiet"] = True
            index += 1
            continue
        if token == "--outdir":
            options["--outdir"] = argv[index + 1] if index + 1 < len(argv) else None
            index += 2
            continue
        if token.startswith("--"):
            break
        positionals.append(token)
        index += 1
    overrides = argv[index:]

    if len(positionals) < 2:
        print("usage: parsl-cwl [--outdir DIR] config.yml tool.cwl [inputs.yml] [--input value ...]",
              file=sys.stderr)
        return 2

    config_path = positionals[0]
    tool_path = positionals[1]
    job_file = positionals[2] if len(positionals) > 2 else None

    try:
        job_order = {}
        if job_file:
            loaded = load_yaml_file(job_file)
            if loaded:
                if not isinstance(loaded, dict):
                    raise ValueError(f"job order file {job_file} must contain a mapping")
                job_order.update(loaded)
        job_order.update(parse_cli_inputs(overrides))

        outdir = options["--outdir"]
        previous_cwd = os.getcwd()
        if outdir:
            os.makedirs(outdir, exist_ok=True)
            os.chdir(outdir)
        try:
            from repro.api import Engine, run as api_run

            tool = Engine.load_process(os.path.join(previous_cwd, tool_path))
            result = api_run(
                tool,
                _resolve_job_paths(tool, job_order, previous_cwd),
                engine="parsl",
                config=os.path.join(previous_cwd, config_path),
            )
        finally:
            if outdir:
                os.chdir(previous_cwd)
    except Exception as exc:  # CLI boundary
        print(f"parsl-cwl: error: {exc}", file=sys.stderr)
        return 1

    print(dump_json(result.outputs))
    if not options["--quiet"]:
        print(f"Final process status is {result.status}", file=sys.stderr)
    return 0


def _resolve_job_paths(tool: Process, job_order: dict, base: str) -> dict:
    """Make the relative paths of ``tool``'s ``File`` inputs absolute against
    the invocation cwd; the value of any other input is left as given."""
    resolved = dict(job_order)
    for param in tool.inputs:
        if not param.type.is_file:
            continue
        value = job_order.get(param.id)
        if isinstance(value, dict) and value.get("class") == "File" and "path" in value \
                and not os.path.isabs(value["path"]):
            resolved[param.id] = dict(value, path=os.path.join(base, value["path"]))
        elif isinstance(value, str) and not os.path.isabs(value):
            resolved[param.id] = os.path.join(base, value)
    return resolved


def _print_help() -> None:
    print(__doc__)
    print("usage: parsl-cwl [--outdir DIR] [--quiet] config.yml tool.cwl [inputs.yml] [--input value ...]")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
