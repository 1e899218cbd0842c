"""A from-scratch implementation of a CWL v1.2 subset.

The Common Workflow Language reference implementation (``cwltool``) and the
Toil runner are not installable offline, so this subpackage provides the CWL
machinery the paper's integration and evaluation need:

* :mod:`repro.cwl.types` — the CWL type system (primitive types, ``File`` /
  ``Directory`` values, arrays, records, enums, optional/union types).
* :mod:`repro.cwl.schema` — the document model (``CommandLineTool``,
  ``Workflow``, ``ExpressionTool``, steps, parameters, bindings, requirements).
* :mod:`repro.cwl.loader` — YAML loading and normalisation into the model.
* :mod:`repro.cwl.validate` — structural validation of documents.
* :mod:`repro.cwl.expressions` — parameter references and a pure-Python
  interpreter for CWL's JavaScript expressions.
* :mod:`repro.cwl.command_line` — command-line construction from a tool and a
  job order (positions, prefixes, arrays, stdin/stdout/stderr redirection).
* :mod:`repro.cwl.outputs` — output collection (glob, outputEval, checksums).
* :mod:`repro.cwl.job` — single-tool job execution.
* :mod:`repro.cwl.graph` — the explicit dataflow IR: a ``WorkflowGraph`` of
  step/scatter/ingress/egress nodes with precomputed edges, indegrees and
  critical-path priorities, shared by every execution path.
* :mod:`repro.cwl.scheduler` — the event-driven dependency-counting scheduler
  (one bounded worker pool, priority dispatch, runtime scatter expansion).
* :mod:`repro.cwl.workflow` — the workflow engine (graph-backed dataflow
  scheduling, scatter, conditional ``when``, flattened subworkflows).
* :mod:`repro.cwl.runners` — the cwltool-like reference runner and the
  Toil-like runner used as evaluation baselines.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cwl.job import CommandLineJob
    from repro.cwl.loader import load_document, load_tool
    from repro.cwl.runners.reference import ReferenceRunner
    from repro.cwl.runners.toil.runner import ToilStyleRunner
    from repro.cwl.runtime import RuntimeContext
    from repro.cwl.schema import CommandLineTool, ExpressionTool, Workflow

# Every ``repro.cwl.<module>`` import runs this file; the reference engine must
# not load the Toil-like runner through it, nor ``repro.cwl.errors`` a loader.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CommandLineJob": "repro.cwl.job",
    "CommandLineTool": "repro.cwl.schema",
    "ExpressionTool": "repro.cwl.schema",
    "ReferenceRunner": "repro.cwl.runners.reference",
    "RuntimeContext": "repro.cwl.runtime",
    "ToilStyleRunner": "repro.cwl.runners.toil.runner",
    "Workflow": "repro.cwl.schema",
    "load_document": "repro.cwl.loader",
    "load_tool": "repro.cwl.loader",
})

__all__ = [
    "CommandLineJob",
    "CommandLineTool",
    "ExpressionTool",
    "ReferenceRunner",
    "RuntimeContext",
    "ToilStyleRunner",
    "Workflow",
    "load_document",
    "load_tool",
]
