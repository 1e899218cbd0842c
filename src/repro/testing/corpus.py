"""The declarative conformance corpus.

Each ``conformance/corpus/*.yaml`` file describes one case, cwltool-style::

    id: echo_stdout            # optional; defaults to the file name
    doc: Echo writes its message to a stdout-typed output.
    tags: [tool, stdout]
    tier1: true                # part of the fast tier-1 subset
    process: examples/cwl/echo.cwl     # path relative to the repo root,
    # ... or an inline document:
    # process: {class: CommandLineTool, baseCommand: echo, ...}
    job:
      message: conformance
    expect:
      outputs:
        output: {class: File, basename: hello.txt, contents: "conformance\\n"}

Failure cases state the engine-independent exit class (see
:data:`repro.cwl.errors.EXIT_CLASSES`) instead of outputs, optionally with a
message substring::

    expect:
      failure: permanentFail
      match: "exit code 3"

One expectation holds on every engine the case runs on.  File inputs are
declared by *content* so the corpus stays self-contained::

    job:
      text_file: {class: File, basename: words.txt, contents: "one two\\n"}

:func:`materialize_job_order` writes such values to real files before a run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cwl.errors import EXIT_CLASSES, ValidationException
from repro.utils.yamlio import load_yaml_file

#: Engines that can run a bare tool (CommandLineTool or ExpressionTool).
TOOL_ENGINES = ("reference", "toil", "parsl")
#: Engines that can run a complete Workflow.
WORKFLOW_ENGINES = ("reference", "toil", "parsl", "parsl-workflow")

_REPO_ROOT = Path(__file__).resolve().parents[3]


def default_corpus_dir() -> Path:
    """``conformance/corpus`` at the repository root."""
    return _REPO_ROOT / "conformance" / "corpus"


@dataclass(frozen=True)
class CaseExpectation:
    """What every engine is expected to do with a case."""

    #: Expected outputs in corpus form (Files by content); ``None`` means the
    #: reference engine's result is the oracle.
    outputs: Optional[Dict[str, Any]] = None
    #: Expected exit class on failure (``None`` = expected to succeed).
    failure: Optional[str] = None
    #: Substring the failure message must contain.
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.failure is not None and self.failure not in EXIT_CLASSES:
            raise ValidationException(
                f"unknown expected failure class {self.failure!r} "
                f"(expected one of {sorted(EXIT_CLASSES)})")
        if self.failure is not None and self.outputs is not None:
            raise ValidationException("a case expectation cannot carry both "
                                      "outputs and a failure class")


@dataclass
class ConformanceCase:
    """One corpus entry: a process, a job order and expectations."""

    id: str
    #: Inline document dict, or an absolute path to a ``.cwl`` file.
    process: Any
    job: Dict[str, Any] = field(default_factory=dict)
    expect: CaseExpectation = field(default_factory=CaseExpectation)
    #: Explicit engine list; ``None`` derives it from the document class.
    engines: Optional[Tuple[str, ...]] = None
    tags: Tuple[str, ...] = ()
    tier1: bool = False
    doc: Optional[str] = None
    source: Optional[str] = None
    #: ``"corpus"``, or ``"generated"`` for a
    #: :meth:`~repro.testing.generator.GeneratedWorkflow.as_case`.
    origin: str = "corpus"

    def is_workflow(self) -> bool:
        """Best-effort document class check (invalid documents count as tools)."""
        document: Any = self.process
        if isinstance(document, str):
            try:
                document = load_yaml_file(document)
            except Exception:
                return False
        return isinstance(document, dict) and document.get("class") == "Workflow"

    def applicable_engines(self) -> Tuple[str, ...]:
        if self.engines is not None:
            return self.engines
        return WORKFLOW_ENGINES if self.is_workflow() else TOOL_ENGINES


def load_case(path: os.PathLike, repo_root: Optional[Path] = None) -> ConformanceCase:
    """Load and validate one corpus YAML file."""
    path = Path(path)
    raw = load_yaml_file(path)
    if not isinstance(raw, dict):
        raise ValidationException(f"corpus case {path} must be a YAML mapping")
    unknown = set(raw) - {"id", "doc", "tags", "tier1", "process", "job",
                          "expect", "engines"}
    if unknown:
        raise ValidationException(
            f"corpus case {path} has unknown keys {sorted(unknown)}")

    process = raw.get("process")
    if process is None:
        raise ValidationException(f"corpus case {path} is missing 'process'")
    if isinstance(process, str):
        resolved = Path(process)
        if not resolved.is_absolute():
            resolved = (repo_root or _REPO_ROOT) / process
        if not resolved.is_file():
            raise ValidationException(
                f"corpus case {path}: process file {resolved} does not exist")
        process = str(resolved)
    elif not isinstance(process, dict):
        raise ValidationException(
            f"corpus case {path}: 'process' must be a path or an inline document")

    engines = raw.get("engines")
    if engines is not None:
        engines = tuple(str(engine) for engine in engines)
        bad = [e for e in engines if e not in WORKFLOW_ENGINES]
        if bad:
            raise ValidationException(
                f"corpus case {path}: unknown engines {bad}")

    return ConformanceCase(
        id=str(raw.get("id") or path.stem),
        process=process,
        job=dict(raw.get("job") or {}),
        expect=_parse_expectation(raw.get("expect"), path),
        engines=engines,
        tags=tuple(str(tag) for tag in raw.get("tags") or ()),
        tier1=bool(raw.get("tier1", False)),
        doc=raw.get("doc"),
        source=str(path),
    )


def _parse_expectation(spec: Any, path: Path) -> CaseExpectation:
    if spec is None:
        return CaseExpectation()
    if not isinstance(spec, dict):
        raise ValidationException(f"corpus case {path}: expectations must be mappings")
    unknown = set(spec) - {"outputs", "failure", "match"}
    if unknown:
        raise ValidationException(
            f"corpus case {path}: unknown expectation keys {sorted(unknown)}")
    return CaseExpectation(outputs=spec.get("outputs"),
                           failure=spec.get("failure"),
                           match=spec.get("match"))


def load_corpus(directory: Optional[os.PathLike] = None, *,
                tier1_only: bool = False,
                tags: Optional[Sequence[str]] = None) -> List[ConformanceCase]:
    """Load every case in ``directory`` (default corpus), sorted by id.

    Case ids must be unique; the sort keeps run and report order independent
    of filesystem enumeration order.
    """
    directory = Path(directory) if directory is not None else default_corpus_dir()
    cases = [load_case(path) for path in sorted(directory.glob("*.yaml"))]
    seen: Dict[str, str] = {}
    for case in cases:
        if case.id in seen:
            raise ValidationException(
                f"duplicate corpus case id {case.id!r} "
                f"({seen[case.id]} and {case.source})")
        seen[case.id] = case.source or "?"
    if tier1_only:
        cases = [case for case in cases if case.tier1]
    if tags:
        wanted = set(tags)
        cases = [case for case in cases if wanted & set(case.tags)]
    return sorted(cases, key=lambda case: case.id)


def materialize_job_order(job: Dict[str, Any], directory: os.PathLike) -> Dict[str, Any]:
    """Write content-declared File inputs to disk; returns a resolved order.

    ``{"class": "File", "contents": ..., "basename": ...}`` values (at any
    nesting depth) become real files under ``directory`` and the value is
    rewritten to reference the written path.  Values that already carry a
    ``path`` pass through untouched.
    """
    directory = Path(directory)

    def materialize(value: Any, hint: str) -> Any:
        if isinstance(value, dict) and value.get("class") == "File" \
                and "contents" in value and "path" not in value:
            basename = value.get("basename") or f"{hint}.txt"
            target = directory / basename
            target.parent.mkdir(parents=True, exist_ok=True)
            # Explicit UTF-8: expected checksums are computed over UTF-8
            # bytes (repro.cwl.canonical.expected_value), so the written
            # bytes must match regardless of the machine locale.
            target.write_text(str(value["contents"]), encoding="utf-8")
            resolved = {k: v for k, v in value.items() if k != "contents"}
            resolved["path"] = str(target)
            resolved.setdefault("basename", basename)
            return resolved
        if isinstance(value, list):
            return [materialize(item, f"{hint}_{index}")
                    for index, item in enumerate(value)]
        if isinstance(value, dict):
            return {key: materialize(item, f"{hint}_{key}")
                    for key, item in value.items()}
        return value

    return {key: materialize(value, key) for key, value in job.items()}
