"""Command-line interfaces for the CWL runners.

* ``repro-cwltool [--parallel] [--outdir DIR] document.cwl [job.yml] [--input value ...]``
  mirrors ``cwltool``'s basic invocation.
* ``repro-toil-cwl-runner [--batchSystem single_machine|slurm] [--jobStore DIR] document.cwl [job.yml] ...``
  mirrors ``toil-cwl-runner``.
* ``parsl-cwl config.yml document.cwl [job.yml] ...`` is the paper's runner,
  defined in :mod:`repro.core.cli` on the same body.

``python -m repro.cwl.cli`` runs ``repro-cwltool``.

All three share :func:`_runner_main`: the same run-option flags
(``--cachedir``, ``--retries``, ``--timeout``, ``--on-error``, ``--rundir`` /
``--resume``, ...), the same SIGTERM handling and exit-130 epilogue.  They
print the CWL output object as JSON on stdout (the behaviour scripts and
tests rely on) and return a non-zero exit code on failure.  Execution routes
through the :mod:`repro.api` engine registry (``"reference"``, ``"toil"``
and ``"parsl"``), so these CLIs observe exactly what a
:class:`repro.api.Session` would.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cwl.journal import resume_header
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import Process
from repro.utils.yamlio import dump_json, load_yaml_file


def parse_job_order(job_file: Optional[str], overrides: Sequence[str]) -> Dict[str, Any]:
    """Combine a YAML job file with ``--key value`` / ``--key=value`` overrides."""
    job_order: Dict[str, Any] = {}
    if job_file:
        loaded = load_yaml_file(job_file)
        if loaded is not None:
            if not isinstance(loaded, dict):
                raise ValueError(f"job order file {job_file} must contain a mapping")
            job_order.update(loaded)
    job_order.update(parse_cli_inputs(overrides))
    return job_order


def parse_cli_inputs(tokens: Sequence[str]) -> Dict[str, Any]:
    """Parse trailing ``--name value`` or ``--name=value`` input overrides."""
    overrides: Dict[str, Any] = {}
    i = 0
    tokens = list(tokens)
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ValueError(f"unexpected input argument {token!r} (expected --name value)")
        name = token[2:]
        if "=" in name:
            name, raw = name.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raw = "true"  # bare flag
                i += 1
            else:
                raw = tokens[i + 1]
                i += 2
        overrides[name] = _coerce_scalar(raw)
    return overrides


def _coerce_scalar(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _split_known_args(parser: argparse.ArgumentParser,
                      argv: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Split argv into (``parser``'s tokens, trailing input overrides): the
    first ``--`` token after the parser's required positionals starts the
    overrides.  Which options take a value is read off the parser too."""
    takes_value = {option for action in parser._actions if action.nargs != 0
                   for option in action.option_strings}
    required = len(_required_positionals(parser))
    known: List[str] = []
    overrides: List[str] = []
    positionals = 0
    i = 0
    argv = list(argv)
    while i < len(argv):
        token = argv[i]
        if token.startswith("--") and positionals >= required:
            overrides.extend(argv[i:])
            break
        known.append(token)
        if token in takes_value and i + 1 < len(argv):
            known.append(argv[i + 1])
            i += 2
            continue
        if not token.startswith("-"):
            positionals += 1
        i += 1
    return known, overrides


def _required_positionals(parser: argparse.ArgumentParser) -> List[str]:
    return [action.dest for action in parser._actions
            if not action.option_strings and action.nargs is None]


def _resolve_file_inputs(process: Process, job_order: Dict[str, Any]) -> Dict[str, Any]:
    """Make relative ``File`` input paths absolute, against the directory
    the CLI was started in (a job runs in a directory of its own); any other
    input is left as given."""
    resolved = dict(job_order)
    for param in process.inputs:
        if not param.type.is_file:
            continue
        value = job_order.get(param.id)
        if isinstance(value, dict) and value.get("class") == "File" and "path" in value:
            resolved[param.id] = dict(value, path=os.path.abspath(value["path"]))
        elif isinstance(value, str):
            resolved[param.id] = os.path.abspath(value)
    return resolved


def _retry_policy_from_args(args: argparse.Namespace):
    """Build the RetryPolicy the CLI flags describe, or None."""
    if args.retries <= 0:
        return None
    from repro.cwl.retry import RetryPolicy

    codes: Tuple[int, ...] = ()
    if args.retry_exit_codes:
        codes = tuple(int(code) for code in str(args.retry_exit_codes).split(","))
    return RetryPolicy(max_attempts=args.retries + 1,
                       backoff_s=args.retry_backoff,
                       retryable_exit_codes=codes)


def _install_sigterm_handler() -> None:
    """Make SIGTERM interrupt the run like Ctrl-C, so cleanup still executes.

    Only possible from the main thread; embedded callers (tests importing the
    main functions from a worker thread) keep their process-wide handler.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def raise_interrupt(_signum: int, _frame: Any) -> None:
        raise KeyboardInterrupt()

    try:
        signal.signal(signal.SIGTERM, raise_interrupt)
    except (ValueError, OSError):  # non-main interpreter contexts
        pass


def _handle_interrupt(parser: argparse.ArgumentParser,
                      runtime_context: RuntimeContext) -> int:
    """Common Ctrl-C/SIGTERM epilogue: reap jobs, clean scratch, hint resume."""
    reaped = runtime_context.terminate_processes()
    runtime_context.close()
    message = f"{parser.prog}: interrupted; terminated {reaped} live job(s)"
    if runtime_context.run_dir:
        message += "; resume with: " + " ".join(
            [parser.prog, "--rundir", runtime_context.run_dir, "--resume"]
            + [f"<{name}>" for name in _required_positionals(parser)])
    print(message, file=sys.stderr)
    return 130


def _runner_main(prog: str, description: str, engine: str,
                 add_engine_args: Callable[[argparse.ArgumentParser], None],
                 engine_options: Callable[[argparse.Namespace, contextlib.ExitStack],
                                          Dict[str, Any]],
                 argv: Optional[Sequence[str]]) -> int:
    """The body all three CLIs share.

    They differ only in ``add_engine_args`` (backend flags, and positionals
    ahead of the document) and ``engine_options`` (the engine's backend
    arguments, built from the parsed flags; anything that must be undone
    afterwards is registered on the given exit stack, which closes the
    session first).  Every run option becomes a :class:`RuntimeContext`
    field here, once, and every run — journalled, resumed or neither — is
    one :meth:`Session.run <repro.api.Session.run>`.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    add_engine_args(parser)
    parser.add_argument("document",
                        help="CWL document (CommandLineTool, ExpressionTool or Workflow)")
    parser.add_argument("job_order", nargs="?", help="YAML/JSON job order file")
    parser.add_argument("--outdir", type=os.path.abspath, default=os.curdir,
                        help="directory the output files are staged into "
                             "(default: the working directory)")
    parser.add_argument("--cachedir", dest="cache_dir", type=os.path.abspath,
                        default=None,
                        help="reuse tool results through the job cache at this directory")
    parser.add_argument("--pipeline", action="store_true",
                        help="run on the asyncio pipelined scheduler core "
                             "(opt-in; outputs are identical to the default "
                             "thread-pool core)")
    parser.add_argument("--max-inflight", dest="max_inflight", type=int,
                        default=None,
                        help="bound on jobs in flight: the pipelined core's "
                             "window (default 64), or unfinished Parsl "
                             "submissions (default: no bound)")
    parser.add_argument("--retries", type=int, default=0,
                        help="retry transient job failures up to N times (default 0)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        help="base backoff in seconds between retries")
    parser.add_argument("--retry-exit-codes", default=None,
                        help="comma-separated tool exit codes considered transient")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock timeout in seconds")
    parser.add_argument("--on-error", dest="on_error", default="stop",
                        choices=("stop", "continue"),
                        help="stop on the first failed step, or continue and "
                             "report partial outputs (failed subtrees skipped)")
    parser.add_argument("--rundir", type=os.path.abspath, default=None,
                        help="journalled run directory (crash-safe; enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="resume the interrupted run recorded in --rundir "
                             "(completed jobs replay from its cache)")
    parser.add_argument("--quiet", action="store_true")
    known, overrides = _split_known_args(
        parser, sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(known)
    except SystemExit as exit_:  # usage error or --help, already printed
        return int(exit_.code or 0)

    _install_sigterm_handler()
    runtime_context = RuntimeContext(outdir=args.outdir, basedir=args.outdir,
                                     cache_dir=args.cache_dir,
                                     retry_policy=_retry_policy_from_args(args),
                                     timeout_s=args.timeout,
                                     on_error=args.on_error,
                                     pipeline=args.pipeline,
                                     max_inflight=args.max_inflight,
                                     run_dir=args.rundir)
    with contextlib.ExitStack() as cleanup:
        try:
            from repro import api

            if args.resume:
                if not args.rundir:
                    raise ValueError("--resume requires --rundir")
                header = resume_header(args.rundir)
                document, job_order = header["process"], header.get("job_order") or {}
            else:
                document = args.document
                job_order = parse_job_order(args.job_order, overrides)
            process = load_document(document)
            job_order = _resolve_file_inputs(process, job_order)
            # On the exit stack, so an interrupt reaps the jobs before the
            # session closes: closing waits for them.
            session = cleanup.enter_context(api.Session(
                engine=engine, runtime_context=runtime_context,
                **engine_options(args, cleanup)))
            # Like cwltool --outdir: the run stages every output file into it.
            result = session.run(process, job_order)
        except KeyboardInterrupt:
            return _handle_interrupt(parser, runtime_context)
        except Exception as exc:  # CLI boundary: report and return failure
            print(f"{prog}: error: {exc}", file=sys.stderr)
            return 1
    print(dump_json(result.outputs))
    if not args.quiet:
        print(f"Final process status is {result.status}", file=sys.stderr)
    return 0 if result.status == "success" else 1


def cwltool_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-cwltool``."""

    def add_engine_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--parallel", action="store_true",
                            help="run independent jobs concurrently")
        parser.add_argument("--max-workers", type=int, default=8)

    def engine_options(args: argparse.Namespace,
                       _cleanup: contextlib.ExitStack) -> Dict[str, Any]:
        return dict(parallel=args.parallel, max_workers=args.max_workers)

    return _runner_main("repro-cwltool",
                        "cwltool-like CWL runner (repro reimplementation)",
                        "reference", add_engine_args, engine_options, argv)


def toil_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-toil-cwl-runner``."""

    def add_engine_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--batchSystem", default="single_machine",
                            choices=("single_machine", "slurm"))
        parser.add_argument("--jobStore", default=None, help="job store directory")
        parser.add_argument("--nodes", type=int, default=3,
                            help="simulated cluster size for slurm")
        parser.add_argument("--cores-per-node", type=int, default=48)
        parser.add_argument("--max-workers", type=int, default=8)

    def engine_options(args: argparse.Namespace,
                       cleanup: contextlib.ExitStack) -> Dict[str, Any]:
        from repro.cwl.runners.toil.batch import SingleMachineBatchSystem, SlurmBatchSystem

        if args.batchSystem == "slurm":
            from repro.cluster.nodes import NodeInventory
            from repro.cluster.scheduler import SimulatedSlurmCluster

            cluster = SimulatedSlurmCluster(
                NodeInventory.homogeneous(args.nodes, cores=args.cores_per_node))
            cleanup.callback(cluster.shutdown)
            batch = SlurmBatchSystem(cluster=cluster)
        else:
            batch = SingleMachineBatchSystem(max_cores=args.max_workers)
        return dict(job_store_dir=args.jobStore, batch_system=batch,
                    max_workers=args.max_workers)

    return _runner_main("repro-toil-cwl-runner",
                        "Toil-like CWL runner (repro reimplementation)",
                        "toil", add_engine_args, engine_options, argv)


if __name__ == "__main__":  # ``python -m repro.cwl.cli`` is ``repro-cwltool``
    sys.exit(cwltool_main())
