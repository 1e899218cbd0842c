"""The :class:`Engine` protocol and the engine registry.

An *engine* is one execution path behind the single calling convention
``execute(process, job_order, hooks) -> ExecutionResult``.  Engines are
constructed through a registry of named factories so that callers — CLIs,
benchmarks, tests — select a backend by name:

.. code-block:: python

    register_engine("reference", ReferenceRunner, aliases=("cwltool",))
    engine = get_engine("reference", parallel=True)

The four built-in engines are registered at the bottom of this module:

========================  =====================================================
registry name             engine
========================  =====================================================
``reference``             :class:`~repro.cwl.runners.reference.ReferenceRunner`
                          (aliases ``cwltool``, ``cwltool-like``)
``toil``                  :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner`
                          (alias ``toil-like``)
``parsl``                 :class:`~repro.api.parsl_engines.ParslEngine`:
                          one ``CWLApp`` call per CommandLineTool (what
                          ``run_tool_with_parsl`` runs), an ExpressionTool
                          evaluated inline, and the workflow bridge for
                          Workflows (alias ``parsl-cwl``)
``parsl-workflow``        :class:`~repro.api.parsl_engines.ParslWorkflowEngine`:
                          the bridge only, strict Workflow semantics (alias
                          ``bridge``)
========================  =====================================================

Factories are any callable returning an :class:`Engine`, or its dotted name
``"package.module:attribute"``, imported the first time the engine is asked
for: ``list_engines()`` knows all four without importing any engine module,
and a session imports only the substrate of the engine it asked for
(``get_engine("reference")`` imports neither the Toil job store nor Parsl).

Every engine constructor takes its backend arguments plus ``runtime_context=``
and nothing else: any other keyword is a
:class:`~repro.cwl.runtime.RuntimeContext` field given flat
(``Session("toil", cache_dir=..., retry_policy=...)``), folded into the
context by :func:`~repro.cwl.runtime.context_with_options`, so no engine
re-declares a run option.  Engines hold backend state across runs (the Toil
runner keeps its job store and batch system, the Parsl engines the
DataFlowKernel they loaded), so one :class:`~repro.api.session.Session`
amortises setup over many executions.
"""

from __future__ import annotations

import abc
import importlib
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.api.events import ExecutionHooks
from repro.api.result import ExecutionResult
from repro.cwl.loader import load_document, load_document_cached
from repro.cwl.schema import Process

ProcessLike = Union[str, os.PathLike, Dict[str, Any], Process]


class EngineError(RuntimeError):
    """An engine cannot execute the given process."""


class UnknownEngineError(EngineError):
    """The requested engine name is not registered."""


class Engine(abc.ABC):
    """One execution backend behind the unified API."""

    #: Registry name; set by the concrete engine (and on registration).
    name: str = "engine"

    @abc.abstractmethod
    def execute(self, process: Process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        """Run ``process`` with ``job_order``; raises on failure."""

    def close(self) -> None:
        """Release engine resources (job stores, kernels, pools)."""

    # ----------------------------------------------------------------- helpers

    @staticmethod
    def load_process(process: ProcessLike) -> Process:
        """Accept a path, a parsed document dict or an already-loaded Process.

        Paths go through the loader's document cache (invalidated on mtime or
        size change): repeated ``api.run`` calls on the same file skip the
        YAML parse.  Runner-level fidelity is unaffected — the reference
        runner still revalidates per job and evaluates uncached.
        """
        if isinstance(process, Process):
            return process
        if isinstance(process, (str, os.PathLike)):
            return load_document_cached(process)
        return load_document(process)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


EngineFactory = Callable[..., Engine]

_REGISTRY: Dict[str, Union[str, EngineFactory]] = {}
_ALIASES: Dict[str, str] = {}


def register_engine(name: str, factory: Union[str, EngineFactory], *,
                    aliases: Iterable[str] = (), replace: bool = False) -> None:
    """Register ``factory`` (or its ``"module:attribute"`` name) under ``name``."""
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise ValueError(f"engine {name!r} is already registered "
                         "(pass replace=True to override)")
    _REGISTRY[key] = factory
    for alias in aliases:
        _ALIASES[alias.lower()] = key


def resolve_engine_name(name: str) -> str:
    """Canonical registry name for ``name`` (resolving aliases)."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise UnknownEngineError(
            f"unknown engine {name!r}; registered engines: {list_engines()}"
        )
    return key


def get_engine(name: str, **options: Any) -> Engine:
    """Instantiate the engine registered under ``name``.

    Keyword options are forwarded to the engine factory, so each engine keeps
    its backend-specific knobs (``parallel=`` for the reference runner,
    ``config=`` for the Parsl engines, ``batch_system=`` for Toil, ...).
    """
    key = resolve_engine_name(name)
    factory = _REGISTRY[key]
    if isinstance(factory, str):
        module_name, _, attribute = factory.partition(":")
        factory = _REGISTRY[key] = getattr(importlib.import_module(module_name), attribute)
    engine = factory(**options)
    engine.name = key
    return engine


def list_engines() -> List[str]:
    """Sorted canonical names of all registered engines."""
    return sorted(_REGISTRY)


register_engine("reference", "repro.cwl.runners.reference:ReferenceRunner",
                aliases=("cwltool", "cwltool-like"))
register_engine("toil", "repro.cwl.runners.toil.runner:ToilStyleRunner",
                aliases=("toil-like",))
register_engine("parsl", "repro.api.parsl_engines:ParslEngine", aliases=("parsl-cwl",))
register_engine("parsl-workflow", "repro.api.parsl_engines:ParslWorkflowEngine",
                aliases=("bridge",))
