"""The paper's contribution: the Parsl + CWL bridge.

Four pieces, matching §III–§V of the paper:

* :class:`~repro.core.cwl_app.CWLApp` — import a CWL ``CommandLineTool`` into a
  Parsl program as a callable app (§III-A, Listings 1–2 and 4).
* :mod:`repro.core.runner` / :mod:`repro.core.cli` — the ``parsl-cwl`` runner
  that executes a CommandLineTool on Parsl executors from the command line,
  configured by a TaPS-style YAML file (§III-B).
* :mod:`repro.core.yaml_config` — the YAML configuration loader.
* :mod:`repro.core.inline_python` — ``InlinePythonRequirement`` support: Python
  expressions (including per-input ``validate:`` rules) inside CWL documents
  (§V, Listings 5–6).
* :class:`~repro.core.workflow_bridge.CWLWorkflowBridge` — the paper's stated
  future work: executing a complete CWL ``Workflow`` through Parsl, each step a
  CWLApp submitted with the values its upstream steps returned.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.cwl_app import CWLApp
    from repro.core.inline_python import InlinePythonEvaluator, InlinePythonRequirementError
    from repro.core.runner import run_tool_with_parsl
    from repro.core.workflow_bridge import CWLWorkflowBridge
    from repro.core.yaml_config import config_from_dict, load_yaml_config

__getattr__, __dir__ = lazy_exports(__name__, {
    "CWLApp": "repro.core.cwl_app",
    "CWLWorkflowBridge": "repro.core.workflow_bridge",
    "InlinePythonEvaluator": "repro.core.inline_python",
    "InlinePythonRequirementError": "repro.core.inline_python",
    "config_from_dict": "repro.core.yaml_config",
    "load_yaml_config": "repro.core.yaml_config",
    "run_tool_with_parsl": "repro.core.runner",
})

__all__ = [
    "CWLApp",
    "CWLWorkflowBridge",
    "InlinePythonEvaluator",
    "InlinePythonRequirementError",
    "config_from_dict",
    "load_yaml_config",
    "run_tool_with_parsl",
]
