"""The CWL document model.

Documents are loaded (see :mod:`repro.cwl.loader`) into the dataclasses below.
The model keeps close to the CWL v1.2 specification's field names, with Python
naming only where a CWL name collides with a keyword (``in`` → ``in_``,
``class`` → ``class_``).

Two extension fields support the paper's §V prototype:

* ``CommandInputParameter.validate`` — a Python expression evaluated against the
  job order before execution (Listing 6),
* the ``InlinePythonRequirement`` requirement class, carried like any other
  requirement dictionary and interpreted by :mod:`repro.core.inline_python`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cwl.types import CWLType, normalize_type


@dataclass
class CommandLineBinding:
    """How one input (or extra argument) appears on the command line."""

    position: Optional[int] = None
    prefix: Optional[str] = None
    separate: bool = True
    item_separator: Optional[str] = None
    value_from: Optional[str] = None
    shell_quote: bool = True
    load_contents: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CommandLineBinding":
        return cls(
            position=data.get("position"),
            prefix=data.get("prefix"),
            separate=data.get("separate", True),
            item_separator=data.get("itemSeparator"),
            value_from=data.get("valueFrom"),
            shell_quote=data.get("shellQuote", True),
            load_contents=data.get("loadContents", False),
        )


@dataclass
class CommandOutputBinding:
    """How one output is collected after the tool runs."""

    glob: Union[None, str, List[str]] = None
    load_contents: bool = False
    output_eval: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CommandOutputBinding":
        return cls(
            glob=data.get("glob"),
            load_contents=data.get("loadContents", False),
            output_eval=data.get("outputEval"),
        )


@dataclass
class CommandInputParameter:
    """One declared tool or workflow input."""

    id: str
    type: CWLType = field(default_factory=lambda: normalize_type("Any"))
    raw_type: Any = "Any"
    doc: Optional[str] = None
    label: Optional[str] = None
    default: Any = None
    has_default: bool = False
    input_binding: Optional[CommandLineBinding] = None
    secondary_files: Sequence[Any] = ()
    streamable: bool = False
    format: Optional[str] = None
    #: Paper extension (§V, Listing 6): a Python expression validating this input.
    validate: Optional[str] = None

    @classmethod
    def from_dict(cls, param_id: str, data: Any) -> "CommandInputParameter":
        if not isinstance(data, dict):
            # Shorthand: ``message: string``
            data = {"type": data}
        binding = data.get("inputBinding")
        return cls(
            id=param_id,
            type=normalize_type(data.get("type", "Any")),
            raw_type=data.get("type", "Any"),
            doc=data.get("doc"),
            label=data.get("label"),
            default=data.get("default"),
            has_default="default" in data,
            input_binding=CommandLineBinding.from_dict(binding) if binding is not None else None,
            secondary_files=data.get("secondaryFiles", ()),
            streamable=data.get("streamable", False),
            format=data.get("format"),
            validate=data.get("validate"),
        )


@dataclass
class CommandOutputParameter:
    """One declared tool output."""

    id: str
    type: CWLType = field(default_factory=lambda: normalize_type("Any"))
    raw_type: Any = "Any"
    doc: Optional[str] = None
    label: Optional[str] = None
    output_binding: Optional[CommandOutputBinding] = None
    secondary_files: Sequence[Any] = ()
    format: Optional[str] = None

    @classmethod
    def from_dict(cls, param_id: str, data: Any) -> "CommandOutputParameter":
        if not isinstance(data, dict):
            data = {"type": data}
        binding = data.get("outputBinding")
        return cls(
            id=param_id,
            type=normalize_type(data.get("type", "Any")),
            raw_type=data.get("type", "Any"),
            doc=data.get("doc"),
            label=data.get("label"),
            output_binding=CommandOutputBinding.from_dict(binding) if binding is not None else None,
            secondary_files=data.get("secondaryFiles", ()),
            format=data.get("format"),
        )


@dataclass
class Process:
    """Fields shared by CommandLineTool, ExpressionTool and Workflow."""

    id: str = ""
    cwl_version: str = "v1.2"
    label: Optional[str] = None
    doc: Optional[str] = None
    inputs: List[CommandInputParameter] = field(default_factory=list)
    outputs: List[CommandOutputParameter] = field(default_factory=list)
    requirements: List[Dict[str, Any]] = field(default_factory=list)
    hints: List[Dict[str, Any]] = field(default_factory=list)
    #: Path of the file this process was loaded from (used to resolve relative refs).
    source_path: Optional[str] = None
    #: The raw normalised dictionary (kept for round-tripping and provenance).
    raw: Dict[str, Any] = field(default_factory=dict)
    #: Filled by :func:`repro.cwl.expressions.compiler.precompile_process` —
    #: the process's own ``CompiledEvaluator``.
    compiled: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def job_name(self) -> str:
        """What a job of this process is called on every engine: in its
        events, retries, fault plans, errors and Toil job description.  The
        process id, or ``<tool>`` for a process without one."""
        return self.id or "<tool>"

    def get_requirement(self, class_name: str, include_hints: bool = True) -> Optional[Dict[str, Any]]:
        """Return the requirement dictionary with the given ``class``, if present."""
        for req in self.requirements:
            if req.get("class") == class_name:
                return req
        if include_hints:
            for hint in self.hints:
                if hint.get("class") == class_name:
                    return hint
        return None

    def input_ids(self) -> List[str]:
        return [p.id for p in self.inputs]

    def output_ids(self) -> List[str]:
        return [p.id for p in self.outputs]

    def get_input(self, param_id: str) -> Optional[CommandInputParameter]:
        for param in self.inputs:
            if param.id == param_id:
                return param
        return None

    def get_output(self, param_id: str) -> Optional[CommandOutputParameter]:
        for param in self.outputs:
            if param.id == param_id:
                return param
        return None


@dataclass
class CommandLineTool(Process):
    """A CWL ``CommandLineTool``."""

    class_: str = "CommandLineTool"
    base_command: List[str] = field(default_factory=list)
    arguments: List[Union[str, CommandLineBinding]] = field(default_factory=list)
    stdin: Optional[str] = None
    stdout: Optional[str] = None
    stderr: Optional[str] = None
    success_codes: Sequence[int] = (0,)
    temporary_fail_codes: Sequence[int] = ()
    permanent_fail_codes: Sequence[int] = ()


@dataclass
class ExpressionTool(Process):
    """A CWL ``ExpressionTool`` — outputs are produced purely by an expression."""

    class_: str = "ExpressionTool"
    expression: str = "$({})"


@dataclass
class WorkflowStepInput:
    """Mapping from a step's input to its source(s) in the enclosing workflow."""

    id: str
    source: List[str] = field(default_factory=list)
    default: Any = None
    has_default: bool = False
    value_from: Optional[str] = None
    link_merge: str = "merge_nested"

    @classmethod
    def from_dict(cls, input_id: str, data: Any) -> "WorkflowStepInput":
        if isinstance(data, str):
            return cls(id=input_id, source=[data])
        if isinstance(data, list):
            return cls(id=input_id, source=[str(s) for s in data])
        if data is None:
            return cls(id=input_id)
        source = data.get("source", [])
        if isinstance(source, str):
            source = [source]
        return cls(
            id=input_id,
            source=[str(s) for s in source],
            default=data.get("default"),
            has_default="default" in data,
            value_from=data.get("valueFrom"),
            link_merge=data.get("linkMerge", "merge_nested"),
        )


@dataclass
class WorkflowStep:
    """One step of a workflow."""

    id: str
    run: Union[str, Process]
    in_: List[WorkflowStepInput] = field(default_factory=list)
    out: List[str] = field(default_factory=list)
    scatter: List[str] = field(default_factory=list)
    scatter_method: str = "dotproduct"
    when: Optional[str] = None
    requirements: List[Dict[str, Any]] = field(default_factory=list)
    hints: List[Dict[str, Any]] = field(default_factory=list)
    doc: Optional[str] = None
    #: The resolved process once ``run`` has been loaded.
    embedded_process: Optional[Process] = None

    def get_input(self, input_id: str) -> Optional[WorkflowStepInput]:
        for step_input in self.in_:
            if step_input.id == input_id:
                return step_input
        return None


@dataclass
class WorkflowOutputParameter:
    """A workflow-level output wired to a step output (or workflow input)."""

    id: str
    type: CWLType = field(default_factory=lambda: normalize_type("Any"))
    raw_type: Any = "Any"
    output_source: List[str] = field(default_factory=list)
    link_merge: str = "merge_nested"
    doc: Optional[str] = None

    @classmethod
    def from_dict(cls, param_id: str, data: Any) -> "WorkflowOutputParameter":
        if not isinstance(data, dict):
            data = {"type": data}
        source = data.get("outputSource", [])
        if isinstance(source, str):
            source = [source]
        return cls(
            id=param_id,
            type=normalize_type(data.get("type", "Any")),
            raw_type=data.get("type", "Any"),
            output_source=[str(s) for s in source],
            link_merge=data.get("linkMerge", "merge_nested"),
            doc=data.get("doc"),
        )


@dataclass
class Workflow(Process):
    """A CWL ``Workflow``: steps connected by data dependencies."""

    class_: str = "Workflow"
    steps: List[WorkflowStep] = field(default_factory=list)
    workflow_outputs: List[WorkflowOutputParameter] = field(default_factory=list)

    def get_step(self, step_id: str) -> Optional[WorkflowStep]:
        for step in self.steps:
            if step.id == step_id:
                return step
        return None

    def step_ids(self) -> List[str]:
        return [s.id for s in self.steps]
