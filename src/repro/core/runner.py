"""Programmatic entry point of the ``parsl-cwl`` runner (paper §III-B).

``run_tool_with_parsl`` executes one CWL CommandLineTool on Parsl executors and
returns the CWL output object, which is also what the ``parsl-cwl`` command
line prints.  It is the ``parsl`` engine's tool run
(:class:`~repro.api.parsl_engines.ParslEngine`), opened, executed once and
closed, so a direct call behaves like ``api.run(tool, order, engine="parsl")``:
it journals under ``run_dir``, resumes, reaps its tool on an interrupt, and
stages the outputs into the context's ``outdir`` (without one they stay in the
run's ``cwl-run-*`` root).  The engine clears the DataFlowKernel only when it
loaded the kernel itself, so the call can be embedded in a larger Parsl program
that already called :func:`repro.parsl.load`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Union

from repro.core.yaml_config import load_yaml_config
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
    runtime_context: Optional[RuntimeContext] = None,
) -> Dict[str, Any]:
    """Execute ``tool`` with the given ``job_order`` on Parsl.

    Parameters
    ----------
    tool:
        Path to a CWL CommandLineTool or ExpressionTool document, or an
        already-loaded tool.
    job_order:
        Input values (plain values; ``File`` inputs may be given as paths or
        ``{"class": "File", "path": ...}`` objects).
    config:
        A YAML configuration path, an already-built :class:`Config`, or ``None``
        to use whatever DataFlowKernel is already loaded.
    runtime_context:
        The run options, as on every engine (README "Configuring a run").
    """
    from repro.api.parsl_engines import ParslEngine

    engine = ParslEngine(config, runtime_context=runtime_context)
    try:
        return engine.execute(tool, job_order or {}).outputs
    finally:
        engine.close()
