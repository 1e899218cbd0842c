"""Programmatic entry point of the ``parsl-cwl`` runner (paper §III-B).

``run_tool_with_parsl`` executes one CWL CommandLineTool on Parsl executors and
returns the CWL output object, which is also what the ``parsl-cwl`` command
line prints.  The function manages the DataFlowKernel lifecycle only when it
loaded the kernel itself, so it can be embedded in a larger Parsl program that
already called :func:`repro.parsl.load`.

With a job cache attached (a ``runtime_context`` that names a store), the
invocation is fingerprinted on the submission side — the inputs are concrete
here, unlike in the workflow bridge — and a hit restores the cached files and
collects outputs without touching Parsl (or even loading a DataFlowKernel) at
all; a miss executes normally and then ingests the produced files, so the
next run of any engine sharing the store is warm.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Union

from repro.core.cwl_app import CWLApp, _uncompiled_evaluator
from repro.core.yaml_config import load_yaml_config
from repro.cwl.command_line import fill_in_defaults
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.jobcache import JobCache, job_key, relative_to_outdir
from repro.cwl.loader import load_tool
from repro.cwl.outputs import collect_outputs
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool
from repro.cwl.types import (
    build_file_value,
    coerce_file_inputs,
    is_directory_value,
    is_file_value,
    value_to_path,
)
from repro.parsl.config import Config
from repro.parsl.dataflow.dflow import DataFlowKernelLoader
from repro.parsl.errors import NoDataFlowKernelError
from repro.utils.logging_config import get_logger

logger = get_logger("core.runner")


def run_tool_with_parsl(
    tool: Union[str, os.PathLike, "CommandLineTool"],
    job_order: Optional[Dict[str, Any]] = None,
    config: Union[None, str, os.PathLike, Config] = None,
    outdir: Optional[str] = None,
    cleanup: Optional[bool] = None,
    cache_note: Optional[Dict[str, str]] = None,
    runtime_context: Optional[RuntimeContext] = None,
) -> Dict[str, Any]:
    """Execute ``tool`` with the given ``job_order`` on Parsl.

    Parameters
    ----------
    tool:
        Path to a CWL CommandLineTool document, or an already-loaded
        :class:`~repro.cwl.schema.CommandLineTool`.
    job_order:
        Input values (plain values; ``File`` inputs may be given as paths or
        ``{"class": "File", "path": ...}`` objects).
    config:
        A YAML configuration path, an already-built :class:`Config`, or ``None``
        to use whatever DataFlowKernel is already loaded.
    outdir:
        Directory in which output files are collected (defaults to the current
        working directory, which is where Parsl bash apps execute).
    cleanup:
        Whether to shut down the DataFlowKernel afterwards.  Defaults to True
        exactly when this call loaded the kernel itself.
    cache_note:
        Optional dict the call annotates with ``{"cache": "hit"|"miss"}``
        (used by the unified API to tag the per-job event).
    runtime_context:
        The run options.  This path honours the job cache (``cache_dir`` /
        ``job_cache``), ``compile_expressions`` (``None``/``True`` = the
        compiled pipeline, the Parsl default; ``False`` = fresh uncached
        engines like the reference runner) and ``timeout_s`` (enforced
        in-shell on the execution side; exceeding it raises
        :class:`~repro.cwl.errors.JobTimeout`).  Retries are the caller's
        concern — the unified API wraps this whole call, cache probe
        included, in its retry loop.
    """
    job_order = dict(job_order or {})
    tool_doc = tool if isinstance(tool, CommandLineTool) else load_tool(tool)
    context = runtime_context or RuntimeContext()
    cache = context.get_job_cache()
    # This path ingests exactly the files the collected output object
    # references; an outputEval may reduce matched files to a plain value, so
    # such tools cannot round-trip through the submission-side store (the
    # runner engines still cache them — they ingest the whole job outdir).
    if cache is not None and not _parsl_cacheable(tool_doc):
        cache = None

    cache_key: Optional[str] = None
    if cache is not None:
        cwl_order = _cwl_job_order(tool_doc, job_order)
        resources = RuntimeContext().with_resources(tool_doc)
        cache_key = job_key(tool_doc, cwl_order,
                            cores=resources.cores, ram_mb=resources.ram_mb)
        entry = cache.lookup(cache_key)
        if entry is not None:
            if cache_note is not None:
                cache_note["cache"] = "hit"
            return _restore_cached(cache, entry, tool_doc, cwl_order, outdir)
        if cache_note is not None:
            cache_note["cache"] = "miss"

    loaded_here = False
    if config is not None:
        if not isinstance(config, Config):
            config = load_yaml_config(config)
        DataFlowKernelLoader.load(config)
        loaded_here = True
    else:
        try:
            DataFlowKernelLoader.dfk()
        except NoDataFlowKernelError:
            DataFlowKernelLoader.load(Config.default())
            loaded_here = True
    if cleanup is None:
        cleanup = loaded_here

    try:
        # The submission-side probe above already missed (and this call is
        # one attempt of the caller's retry loop), so the app itself carries
        # only the expression and timeout settings.
        app = CWLApp(tool_doc, runtime_context=context.child(
            job_cache=False, retry_policy=None, fault_plan=None))
        future = app(**job_order)
        future.result()

        outdir = outdir or os.getcwd()
        stdout_path = _absolute(future.stdout, outdir)
        stderr_path = _absolute(future.stderr, outdir)
        # By default collect_outputs' evaluator picks up the pinned templates
        # the CWLApp constructor compiled onto the tool; with
        # compile_expressions=False an explicit uncached evaluator is used
        # instead.
        runtime = RuntimeContext().with_resources(app.tool).runtime_object(outdir, outdir)
        outputs = collect_outputs(
            app.tool,
            outdir=outdir,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
            job_order=_cwl_job_order(app.tool, job_order),
            runtime=runtime,
            evaluator=_uncompiled_evaluator(app.tool)
            if context.compile_expressions is False else None,
        )
        if cache is not None and cache_key is not None:
            try:
                _store_collected(cache, cache_key, outdir, outputs,
                                 stdout_path, stderr_path)
            except Exception:
                # A full/read-only store must never fail a job that succeeded.
                logger.warning("could not store %s in the cache at %s",
                               tool_doc.id, cache.cache_dir, exc_info=True)
        return outputs
    finally:
        if cleanup:
            DataFlowKernelLoader.clear()


def _parsl_cacheable(tool: CommandLineTool) -> bool:
    """Whether every declared output survives a referenced-files-only store."""
    return not any(
        param.output_binding is not None
        and param.output_binding.output_eval is not None
        for param in tool.outputs
    )


def _restore_cached(cache: JobCache, entry: Any, tool_doc: CommandLineTool,
                    cwl_order: Dict[str, Any], outdir: Optional[str]) -> Dict[str, Any]:
    """Stage a cached invocation into ``outdir`` and re-collect its outputs.

    Copy-staged (not hardlinked) because the default outdir is the shared
    working directory, whose files may later be rewritten in place.
    """
    outdir = outdir or os.getcwd()
    cache.restore(entry, outdir, prefer_copy=True)
    precompile_process(tool_doc)
    stdout_name = entry.stream_name("stdout")
    stderr_name = entry.stream_name("stderr")
    runtime = RuntimeContext().with_resources(tool_doc).runtime_object(outdir, outdir)
    return collect_outputs(
        tool_doc,
        outdir=outdir,
        stdout_path=os.path.join(outdir, stdout_name) if stdout_name else None,
        stderr_path=os.path.join(outdir, stderr_name) if stderr_name else None,
        job_order=cwl_order,
        runtime=runtime,
    )


def _store_collected(cache: JobCache, key: str, outdir: str,
                     outputs: Dict[str, Any],
                     stdout_path: Optional[str],
                     stderr_path: Optional[str]) -> None:
    """Ingest the files a collected output object references, plus streams."""
    paths = _output_file_paths(outputs)
    for stream in (stdout_path, stderr_path):
        if stream and os.path.isfile(stream):
            paths.append(stream)
    cache.store_files(
        key, outdir, paths,
        stdout_name=relative_to_outdir(stdout_path, outdir),
        stderr_name=relative_to_outdir(stderr_path, outdir),
    )


def _output_file_paths(value: Any, into: Optional[List[str]] = None) -> List[str]:
    """Every File/Directory path referenced by an output object."""
    paths = [] if into is None else into
    if is_file_value(value) or is_directory_value(value):
        try:
            paths.append(value_to_path(value))
        except Exception:
            pass
    elif isinstance(value, list):
        for item in value:
            _output_file_paths(item, paths)
    elif isinstance(value, dict):
        for item in value.values():
            _output_file_paths(item, paths)
    return paths


def _absolute(path: Optional[str], base: str) -> Optional[str]:
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.join(base, path)


def _cwl_job_order(tool: CommandLineTool, job_order: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the CWL-side job order (File values as dictionaries) for output collection."""
    rebuilt: Dict[str, Any] = {}
    for param in tool.inputs:
        if param.id not in job_order:
            continue
        value = job_order[param.id]
        if param.type.is_file and isinstance(value, (str, os.PathLike)):
            rebuilt[param.id] = build_file_value(os.fspath(value))
        else:
            rebuilt[param.id] = coerce_file_inputs(value)
    return fill_in_defaults(tool.inputs, rebuilt)
