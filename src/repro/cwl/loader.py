"""Document loading and normalisation.

CWL's YAML syntax allows several shorthand forms (schema-salad "map" forms).
The loader normalises all of them into the document model in
:mod:`repro.cwl.schema`:

* ``inputs`` / ``outputs`` / ``steps`` given as mappings are converted to lists
  with explicit ``id`` fields,
* ``requirements`` / ``hints`` given as mappings keyed by class name are
  converted to lists of ``{"class": ...}`` dictionaries,
* ``baseCommand`` given as a string becomes a one-element list,
* ``run:`` references to other files are resolved relative to the referencing
  document and loaded recursively (embedded processes are loaded in place),
* identifiers are stripped of ``#`` prefixes so that ``steps`` can refer to
  inputs by bare name.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Union

from repro.cwl.errors import ValidationException
from repro.cwl.schema import (
    CommandInputParameter,
    CommandLineBinding,
    CommandLineTool,
    CommandOutputParameter,
    ExpressionTool,
    Process,
    Workflow,
    WorkflowOutputParameter,
    WorkflowStep,
    WorkflowStepInput,
)
from repro.utils.yamlio import YAMLError, describe_yaml_error, load_yaml_file

PathLike = Union[str, os.PathLike]

#: Loaded ``run:`` sub-documents keyed by resolved path (bounded LRU).
#: Scatter-heavy workflows and repeated benchmark runs reload the same tool
#: files over and over; the loaded model is immutable during execution, so
#: one shared instance per (path, mtime, size) is safe and skips the YAML
#: parse and model build entirely.
_RUN_DOCUMENT_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_RUN_DOCUMENT_CACHE_MAX = 128
_RUN_DOCUMENT_LOCK = threading.Lock()


def _stamp_of(path: str):
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


def _dependency_stamps(path: str, process: Process) -> Dict[str, tuple]:
    """Stamps for ``path`` and every file-backed sub-process embedded in it.

    A cached workflow bakes its ``run:`` sub-documents in at parse time, so
    editing a *child* file must invalidate the parent's entry too.
    """
    stamps = {path: _stamp_of(path)}

    def visit(proc: Process) -> None:
        if isinstance(proc, Workflow):
            for step in proc.steps:
                embedded = step.embedded_process
                if embedded is None or not embedded.source_path:
                    continue
                child = os.path.abspath(embedded.source_path)
                if child not in stamps:
                    stamps[child] = _stamp_of(child)
                    visit(embedded)

    visit(process)
    return stamps


def _stamps_current(stamps: Dict[str, tuple]) -> bool:
    try:
        return all(_stamp_of(path) == stamp for path, stamp in stamps.items())
    except OSError:
        return False


def load_document_cached(source_path: PathLike) -> Process:
    """Load a CWL document from a path through the sub-document cache.

    The cache entry is invalidated when the file — or any ``run:`` sub-file
    embedded in it — changes mtime or size.  Returns a *shared*
    :class:`Process` instance; callers must not mutate it.
    """
    path = os.path.abspath(os.fspath(source_path))
    with _RUN_DOCUMENT_LOCK:
        entry = _RUN_DOCUMENT_CACHE.get(path)
    if entry is not None and _stamps_current(entry[0]):
        with _RUN_DOCUMENT_LOCK:
            if path in _RUN_DOCUMENT_CACHE:
                _RUN_DOCUMENT_CACHE.move_to_end(path)
        return entry[1]
    process = load_document(path)
    try:
        stamps = _dependency_stamps(path, process)
    except OSError:
        return process
    with _RUN_DOCUMENT_LOCK:
        _RUN_DOCUMENT_CACHE[path] = (stamps, process)
        _RUN_DOCUMENT_CACHE.move_to_end(path)
        while len(_RUN_DOCUMENT_CACHE) > _RUN_DOCUMENT_CACHE_MAX:
            _RUN_DOCUMENT_CACHE.popitem(last=False)
    return process


def clear_document_cache() -> None:
    """Drop every cached ``run:`` sub-document (tests)."""
    with _RUN_DOCUMENT_LOCK:
        _RUN_DOCUMENT_CACHE.clear()


def _strip_hash(identifier: str) -> str:
    """Normalise ``#step/name`` and ``file.cwl#name`` identifiers to bare names."""
    if "#" in identifier:
        identifier = identifier.split("#", 1)[1]
    return identifier


def _as_listing(section: Any, id_key: str = "id") -> List[Dict[str, Any]]:
    """Normalise a map-or-list CWL section into a list of dicts with ``id`` keys."""
    if section is None:
        return []
    if isinstance(section, dict):
        out = []
        for key, value in section.items():
            if isinstance(value, dict):
                entry = dict(value)
            else:
                entry = {"_shorthand": value}
            entry[id_key] = _strip_hash(str(key))
            out.append(entry)
        return out
    if isinstance(section, list):
        out = []
        for item in section:
            if not isinstance(item, dict):
                raise ValidationException(f"expected mapping entries in list section, got {item!r}")
            entry = dict(item)
            if id_key in entry:
                entry[id_key] = _strip_hash(str(entry[id_key]))
            out.append(entry)
        return out
    raise ValidationException(f"cannot normalise section of type {type(section).__name__}")


def _normalise_requirements(section: Any) -> List[Dict[str, Any]]:
    """Requirements may be a list of class-dicts or a map keyed by class name."""
    if section is None:
        return []
    if isinstance(section, list):
        out = []
        for item in section:
            if not isinstance(item, dict) or "class" not in item:
                raise ValidationException(f"requirement entries need a 'class' field: {item!r}")
            out.append(dict(item))
        return out
    if isinstance(section, dict):
        out = []
        for class_name, body in section.items():
            entry = dict(body) if isinstance(body, dict) else {}
            entry["class"] = class_name
            out.append(entry)
        return out
    raise ValidationException("requirements must be a list or a mapping")


def _parse_parameter_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Undo the ``_shorthand`` marker inserted by :func:`_as_listing`."""
    if "_shorthand" in entry:
        shorthand = entry.pop("_shorthand")
        entry.setdefault("type", shorthand)
    return entry


def load_document(source: Union[PathLike, Dict[str, Any]],
                  base_dir: Optional[str] = None) -> Process:
    """Load a CWL document from a path or an already-parsed dictionary.

    Returns a :class:`CommandLineTool`, :class:`Workflow` or
    :class:`ExpressionTool` according to the document's ``class`` field.
    """
    source_path: Optional[str] = None
    if isinstance(source, (str, os.PathLike)):
        source_path = os.path.abspath(os.fspath(source))
        try:
            document = load_yaml_file(source_path)
        except YAMLError as exc:
            raise ValidationException(describe_yaml_error(exc, source_path)) from exc
        base_dir = os.path.dirname(source_path)
    else:
        document = source
    if not isinstance(document, dict):
        raise ValidationException("a CWL document must be a YAML mapping at the top level")

    if "$graph" in document:
        return _load_graph(document, base_dir, source_path)

    cwl_class = document.get("class")
    if cwl_class == "CommandLineTool":
        return _load_command_line_tool(document, base_dir, source_path)
    if cwl_class == "Workflow":
        return _load_workflow(document, base_dir, source_path)
    if cwl_class == "ExpressionTool":
        return _load_expression_tool(document, base_dir, source_path)
    raise ValidationException(f"unsupported or missing document class: {cwl_class!r}")


def load_tool(source: Union[PathLike, Dict[str, Any]],
              base_dir: Optional[str] = None) -> CommandLineTool:
    """Load a document and require it to be a CommandLineTool."""
    process = load_document(source, base_dir=base_dir)
    if not isinstance(process, CommandLineTool):
        raise ValidationException(
            f"expected a CommandLineTool, got class {type(process).__name__}"
        )
    return process


def _load_graph(document: Dict[str, Any], base_dir: Optional[str],
                source_path: Optional[str]) -> Process:
    """Load a ``$graph`` packed document; returns the process with id ``main``."""
    processes: Dict[str, Process] = {}
    for entry in document.get("$graph", []):
        proc = load_document(dict(entry), base_dir=base_dir)
        proc.source_path = source_path
        processes[_strip_hash(str(entry.get("id", "")))] = proc
    main = processes.get("main")
    if main is None:
        raise ValidationException("$graph documents must contain a process with id 'main'")
    # Resolve step.run references that point at graph members.
    for proc in processes.values():
        if isinstance(proc, Workflow):
            for step in proc.steps:
                if isinstance(step.run, str):
                    ref = _strip_hash(step.run)
                    if ref in processes:
                        step.embedded_process = processes[ref]
    return main


def _common_fields(document: Dict[str, Any], source_path: Optional[str]) -> Dict[str, Any]:
    return {
        "id": _strip_hash(str(document.get("id", ""))) or (os.path.basename(source_path) if source_path else ""),
        "cwl_version": document.get("cwlVersion", "v1.2"),
        "label": document.get("label"),
        "doc": document.get("doc"),
        "requirements": _normalise_requirements(document.get("requirements")),
        "hints": _normalise_requirements(document.get("hints")),
        "source_path": source_path,
        "raw": document,
    }


def _load_inputs(document: Dict[str, Any]) -> List[CommandInputParameter]:
    entries = [_parse_parameter_entry(e) for e in _as_listing(document.get("inputs"))]
    return [CommandInputParameter.from_dict(e["id"], e) for e in entries]


def _load_outputs(document: Dict[str, Any]) -> List[CommandOutputParameter]:
    entries = [_parse_parameter_entry(e) for e in _as_listing(document.get("outputs"))]
    return [CommandOutputParameter.from_dict(e["id"], e) for e in entries]


def _load_command_line_tool(document: Dict[str, Any], base_dir: Optional[str],
                            source_path: Optional[str]) -> CommandLineTool:
    base_command = document.get("baseCommand", [])
    if isinstance(base_command, str):
        base_command = [base_command]
    arguments: List[Any] = []
    for arg in document.get("arguments", []) or []:
        if isinstance(arg, dict):
            arguments.append(CommandLineBinding.from_dict(arg))
        else:
            arguments.append(str(arg))
    tool = CommandLineTool(
        base_command=[str(part) for part in base_command],
        arguments=arguments,
        stdin=document.get("stdin"),
        stdout=document.get("stdout"),
        stderr=document.get("stderr"),
        success_codes=tuple(document.get("successCodes", (0,))),
        temporary_fail_codes=tuple(document.get("temporaryFailCodes", ())),
        permanent_fail_codes=tuple(document.get("permanentFailCodes", ())),
        inputs=_load_inputs(document),
        outputs=_load_outputs(document),
        **_common_fields(document, source_path),
    )
    return tool


def _load_expression_tool(document: Dict[str, Any], base_dir: Optional[str],
                          source_path: Optional[str]) -> ExpressionTool:
    return ExpressionTool(
        expression=document.get("expression", "$({})"),
        inputs=_load_inputs(document),
        outputs=_load_outputs(document),
        **_common_fields(document, source_path),
    )


def _load_workflow(document: Dict[str, Any], base_dir: Optional[str],
                   source_path: Optional[str]) -> Workflow:
    outputs_entries = [_parse_parameter_entry(e) for e in _as_listing(document.get("outputs"))]
    workflow_outputs = [WorkflowOutputParameter.from_dict(e["id"], e) for e in outputs_entries]
    for output in workflow_outputs:
        output.output_source = [_strip_hash(source) for source in output.output_source]
    workflow = Workflow(
        inputs=_load_inputs(document),
        outputs=_load_outputs(document),
        workflow_outputs=workflow_outputs,
        steps=_load_steps(document, base_dir),
        **_common_fields(document, source_path),
    )
    return workflow


def _load_steps(document: Dict[str, Any], base_dir: Optional[str]) -> List[WorkflowStep]:
    steps: List[WorkflowStep] = []
    for entry in _as_listing(document.get("steps")):
        run = entry.get("run")
        if run is None:
            raise ValidationException(f"step {entry.get('id')!r} is missing its 'run' field")

        embedded: Optional[Process] = None
        if isinstance(run, dict):
            embedded = load_document(dict(run), base_dir=base_dir)
        elif isinstance(run, str) and not run.startswith("#"):
            resolved = run
            if base_dir is not None and not os.path.isabs(run):
                resolved = os.path.join(base_dir, run)
            if os.path.exists(resolved):
                embedded = load_document_cached(resolved)

        raw_in = entry.get("in", {})
        if isinstance(raw_in, dict):
            step_inputs = [WorkflowStepInput.from_dict(_strip_hash(str(k)), v)
                           for k, v in raw_in.items()]
        else:
            step_inputs = [WorkflowStepInput.from_dict(_strip_hash(str(item.get("id"))), item)
                           for item in raw_in]
        # Sources may carry '#' prefixes.
        for step_input in step_inputs:
            step_input.source = [_strip_hash(s) for s in step_input.source]

        out = entry.get("out", [])
        out_ids = []
        for item in out:
            if isinstance(item, dict):
                out_ids.append(_strip_hash(str(item.get("id"))))
            else:
                out_ids.append(_strip_hash(str(item)))

        scatter = entry.get("scatter", [])
        if isinstance(scatter, str):
            scatter = [scatter]

        steps.append(
            WorkflowStep(
                id=entry["id"],
                run=run,
                in_=step_inputs,
                out=out_ids,
                scatter=[_strip_hash(str(s)) for s in scatter],
                scatter_method=entry.get("scatterMethod", "dotproduct"),
                when=entry.get("when"),
                requirements=_normalise_requirements(entry.get("requirements")),
                hints=_normalise_requirements(entry.get("hints")),
                doc=entry.get("doc"),
                embedded_process=embedded,
            )
        )
    return steps
