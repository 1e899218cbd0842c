"""Programmatic entry point of the ``parsl-cwl`` runner (paper §III-B).

``run_tool_with_parsl`` executes one CWL CommandLineTool on Parsl executors and
returns the CWL output object, which is also what the ``parsl-cwl`` command
line prints.  The function manages the DataFlowKernel lifecycle only when it
loaded the kernel itself, so it can be embedded in a larger Parsl program that
already called :func:`repro.parsl.load`.

The tool runs as one ``CWLApp`` invocation under the caller's whole context:
retries wrap the runners' job attempt on the execution side (a hit restores
the recorded files without spawning anything), and outputs are collected in
the job's directory.  That is ``<root>/<job name>`` under a run's root
(:func:`~repro.cwl.outputs.run_in_root`; an engine's, or one made here when
the context names an ``outdir``, into which the outputs are then staged);
else the job's files are copied into the working directory and collected
there.  The job is reported through
:func:`~repro.core.cwl_app.report_finished`, as bridge steps are.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Union

from repro.core.cwl_app import CWLApp, job_order_view, report_finished
from repro.core.yaml_config import load_yaml_config
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.loader import load_tool
from repro.cwl.outputs import collect_outputs, run_in_root
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool
from repro.parsl.config import Config
from repro.parsl.dataflow.dflow import DataFlowKernelLoader
from repro.parsl.errors import NoDataFlowKernelError


def ensure_kernel(config: Union[None, str, os.PathLike, Config]) -> bool:
    """Load a DataFlowKernel from ``config``, or reuse the loaded one.

    ``config`` is a YAML configuration path or a :class:`Config`; with
    ``None`` an already-loaded kernel is reused and the default configuration
    is loaded only when there is none.  Returns whether this call loaded a
    kernel — whoever did is the one to clear it.
    """
    if config is None:
        try:
            DataFlowKernelLoader.dfk()
            return False
        except NoDataFlowKernelError:
            config = Config.default()
    elif not isinstance(config, Config):
        config = load_yaml_config(config)
    DataFlowKernelLoader.load(config)
    return True


def run_tool_with_parsl(
    tool: Union[str, os.PathLike, "CommandLineTool"],
    job_order: Optional[Dict[str, Any]] = None,
    config: Union[None, str, os.PathLike, Config] = None,
    cleanup: Optional[bool] = None,
    runtime_context: Optional[RuntimeContext] = None,
    job_observer: Optional[Any] = None,
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
    cleanup:
        Whether to shut down the DataFlowKernel afterwards.  Defaults to True
        exactly when this call loaded the kernel itself.
    runtime_context:
        The run options, handed whole to the :class:`CWLApp`.  Given an
        ``outdir``, the output files are staged into it, as on every engine;
        given neither that nor a run's root, the job's files are delivered
        into the working directory and collected there.  The rest: the job cache
        (``cache_dir`` / ``job_cache``; a hit is restored through the loaded
        kernel, in process), ``cores`` / ``ram_mb`` / ``env``, ``timeout_s``
        (enforced by the launcher the runners use; exceeding it raises
        :class:`~repro.cwl.errors.JobTimeout`), and ``retry_policy`` /
        ``fault_plan``, honoured on the execution side around the cache
        probe.
    job_observer:
        Optional :class:`~repro.api.events.EventRecorder`-like observer: told
        of the job's start, then (after output collection) its retries and end.
        A journalling recorder writes the job's ``retry`` and ``job`` records.
    """
    job_order = dict(job_order or {})
    tool_doc = tool if isinstance(tool, CommandLineTool) else load_tool(tool)
    context = runtime_context or RuntimeContext()
    if context.job_dir is None and context.outdir is not None:
        # As on an engine: in a root of its own, its outputs staged into outdir.
        return run_in_root(context, lambda run: run_tool_with_parsl(
            tool_doc, job_order, config, cleanup, run, job_observer))
    job_dir = context.job_dir and context.node_context(tool_doc.job_name).job_dir
    loaded_here = ensure_kernel(config)
    if cleanup is None:
        cleanup = loaded_here

    token = None if job_observer is None else job_observer.job_started(tool_doc.job_name)
    future = error = None
    try:
        app = CWLApp(tool_doc, runtime_context=context)
        future = app(**job_order, _job_dir=job_dir)
        future.result()

        outdir = job_dir or os.getcwd()
        # A relative redirection is one under ``outdir``.
        stdout_path, stderr_path = (os.path.join(outdir, stream) if stream else None
                                    for stream in (future.stdout, future.stderr))
        runtime = context.with_resources(app.tool).runtime_object(outdir, outdir)
        return collect_outputs(
            app.tool,
            outdir=outdir,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
            job_order=job_order_view(app.tool, job_order),
            runtime=runtime,
            evaluator=precompile_process(app.tool),
        )
    except BaseException as exc:
        error = exc
        raise
    finally:
        report_finished(future, job_observer, token, error)
        if cleanup:
            DataFlowKernelLoader.clear()
