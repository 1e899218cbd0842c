"""repro — reproduction of *Parsl+CWL: Towards Combining the Python and CWL Ecosystems*.

The package is organised as a set of substrates plus the paper's core contribution:

* :mod:`repro.parsl` — a from-scratch implementation of the Parsl parallel programming
  model (apps, futures, DataFlowKernel, executors, providers).
* :mod:`repro.cwl` — a from-scratch implementation of a CWL v1.2 subset (document model,
  expressions, command-line construction, output collection, reference and Toil-like
  runners).
* :mod:`repro.imaging` — a pure-numpy PNG codec and the image-processing command-line
  tools used by the paper's evaluation workflow.
* :mod:`repro.cluster` — a simulated Slurm-like cluster used by providers and batch
  systems so that "multi node" experiments can run on a laptop.
* :mod:`repro.core` — the paper's contribution: ``CWLApp``, the ``parsl-cwl`` runner,
  the TaPS-style YAML configuration loader and ``InlinePythonRequirement`` support.

The most commonly used entry points are re-exported here for convenience::

    import repro
    repro.load(repro.thread_config())
    echo = repro.CWLApp("echo.cwl")
    fut = echo(message="Hello, World!")
    fut.result()
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro import api
    from repro.api import ExecutionHooks, ExecutionResult, Session
    from repro.core.cwl_app import CWLApp
    from repro.core.workflow_bridge import CWLWorkflowBridge
    from repro.core.yaml_config import load_yaml_config
    from repro.parsl import (
        Config,
        DataFlowKernel,
        bash_app,
        clear,
        dfk,
        join_app,
        load,
        python_app,
    )
    from repro.parsl.configs import htex_config, local_process_config, thread_config
    from repro.parsl.data_provider.files import File

# Nothing is imported until it is asked for: a tool process
# (``python3 -m repro.imaging.cli``) runs this file and must not pay for the
# runners.  README "Start-up cost" says what is loaded when.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CWLApp": "repro.core.cwl_app",
    "CWLWorkflowBridge": "repro.core.workflow_bridge",
    "Config": "repro.parsl.config",
    "DataFlowKernel": "repro.parsl.dataflow.dflow",
    "ExecutionHooks": "repro.api.events",
    "ExecutionResult": "repro.api.result",
    "File": "repro.parsl.data_provider.files",
    "Session": "repro.api.session",
    "api": "repro.api",
    "bash_app": "repro.parsl.apps.app",
    "clear": "repro.parsl",
    "dfk": "repro.parsl",
    "htex_config": "repro.parsl.configs",
    "join_app": "repro.parsl.apps.app",
    "load": "repro.parsl",
    "load_yaml_config": "repro.core.yaml_config",
    "local_process_config": "repro.parsl.configs",
    "python_app": "repro.parsl.apps.app",
    "thread_config": "repro.parsl.configs",
    # The subpackages ``import repro`` used to load: ``repro.cwl.load_tool``
    # after a bare ``import repro`` keeps working.
    "cluster": "repro.cluster",
    "core": "repro.core",
    "cwl": "repro.cwl",
    "parsl": "repro.parsl",
    "utils": "repro.utils",
})

__version__ = "1.0.0"

__all__ = [
    "CWLApp",
    "CWLWorkflowBridge",
    "Config",
    "DataFlowKernel",
    "ExecutionHooks",
    "ExecutionResult",
    "File",
    "Session",
    "api",
    "bash_app",
    "clear",
    "dfk",
    "htex_config",
    "join_app",
    "load",
    "load_yaml_config",
    "local_process_config",
    "python_app",
    "thread_config",
    "__version__",
]
