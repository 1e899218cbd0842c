"""Unified execution API over every way this repository can run CWL.

The paper's contribution (the ``parsl-cwl`` bridge) coexists with the
cwltool-like :class:`~repro.cwl.runners.reference.ReferenceRunner`, the
Toil-like :class:`~repro.cwl.runners.toil.runner.ToilStyleRunner` and the
:class:`~repro.core.workflow_bridge.CWLWorkflowBridge` — four execution paths
with four calling conventions.  This package puts one facade in front of all
of them, the same way Parsl composes pluggable executors behind a single
DataFlowKernel:

* :class:`Engine` — the protocol every execution backend implements, plus a
  registry (:func:`register_engine` / :func:`get_engine` /
  :func:`list_engines`) with the built-in entries ``"reference"``, ``"toil"``,
  ``"parsl"`` and ``"parsl-workflow"``.
* :class:`Session` — run processes through a chosen engine:
  ``run(...) -> ExecutionResult`` blocks, ``submit(...) -> ExecutionHandle``
  is asynchronous.
* :class:`ExecutionResult` — the unified return shape (outputs, status,
  jobs_run, wall_time_s, per-job events) of every engine.
* :class:`ExecutionHooks` — ``on_job_start`` / ``on_job_end`` callbacks so
  monitoring and benchmarks observe every engine through one interface.
* :func:`plan` / :meth:`Session.plan` — compile a process into the shared
  :class:`~repro.cwl.graph.WorkflowGraph` IR and return its node/edge/
  critical-path summary without executing anything (also attached to every
  workflow result as :attr:`ExecutionResult.plan`).
* :func:`run_matrix` / :class:`MatrixConfig` — execute one process across
  the engine × cache × faults × pipeline matrix with per-run
  isolation and canonicalised (engine-independent) outputs; the execution
  backbone of the conformance harness in :mod:`repro.testing`.
* Fault tolerance — :class:`RetryPolicy` (deterministic seeded backoff),
  per-job ``timeout_s``, ``on_error="continue"`` partial results, crash-safe
  runs (``run_dir=`` on any run journals it; :func:`resume` picks an
  interrupted one back up), and the seeded fault-injection plans of
  :mod:`repro.cwl.faults`.

Quickstart::

    from repro import api

    result = api.run("examples/cwl/echo.cwl", {"message": "hi"},
                     engine="reference")
    print(result.outputs["output"]["path"], result.wall_time_s)

    with api.Session(engine="toil") as session:
        for order in job_orders:
            session.run("tool.cwl", order)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# ``plan`` and ``resume`` are functions named like the submodules that define
# them.  Importing a submodule binds it on the package, which would shadow a
# lazily served function of the same name, so these two modules (the CWL
# front end every engine needs, and the journal) are imported here.
from repro.api.plan import ExecutionPlan, plan
from repro.api.resume import resume, resume_info

if TYPE_CHECKING:
    from repro.api.engine import (
        Engine,
        EngineError,
        UnknownEngineError,
        get_engine,
        list_engines,
        register_engine,
        resolve_engine_name,
    )
    from repro.api.events import ExecutionHooks, JobEvent
    from repro.api.matrix import (
        CACHE_MODES,
        ENGINE_ORDER,
        REFERENCE_CONFIG,
        MatrixConfig,
        MatrixRun,
        matrix_configs,
        run_config,
        run_matrix,
    )
    from repro.api.result import ExecutionResult
    from repro.api.session import ExecutionHandle, Session, run, submit
    from repro.cwl.faults import FaultPlan, FaultSpec, fault_profiles, get_fault_profile
    from repro.cwl.retry import RetryPolicy

# Names resolve on first use.  The built-in engines are registered by dotted
# name in :mod:`repro.api.engine`, so ``list_engines()`` knows all four before
# any engine module is imported, and ``get_engine`` imports only the one asked
# for.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CACHE_MODES": "repro.api.matrix",
    "ENGINE_ORDER": "repro.api.matrix",
    "Engine": "repro.api.engine",
    "EngineError": "repro.api.engine",
    "ExecutionHandle": "repro.api.session",
    "ExecutionHooks": "repro.api.events",
    "ExecutionResult": "repro.api.result",
    "FaultPlan": "repro.cwl.faults",
    "FaultSpec": "repro.cwl.faults",
    "JobEvent": "repro.api.events",
    "MatrixConfig": "repro.api.matrix",
    "MatrixRun": "repro.api.matrix",
    "REFERENCE_CONFIG": "repro.api.matrix",
    "RetryPolicy": "repro.cwl.retry",
    "Session": "repro.api.session",
    "UnknownEngineError": "repro.api.engine",
    "fault_profiles": "repro.cwl.faults",
    "get_engine": "repro.api.engine",
    "get_fault_profile": "repro.cwl.faults",
    "list_engines": "repro.api.engine",
    "matrix_configs": "repro.api.matrix",
    "register_engine": "repro.api.engine",
    "resolve_engine_name": "repro.api.engine",
    "run": "repro.api.session",
    "run_config": "repro.api.matrix",
    "run_matrix": "repro.api.matrix",
    "submit": "repro.api.session",
})

__all__ = [
    "CACHE_MODES",
    "ENGINE_ORDER",
    "Engine",
    "EngineError",
    "ExecutionHandle",
    "ExecutionHooks",
    "ExecutionPlan",
    "ExecutionResult",
    "FaultPlan",
    "FaultSpec",
    "JobEvent",
    "MatrixConfig",
    "MatrixRun",
    "REFERENCE_CONFIG",
    "RetryPolicy",
    "Session",
    "UnknownEngineError",
    "fault_profiles",
    "get_engine",
    "get_fault_profile",
    "list_engines",
    "matrix_configs",
    "plan",
    "register_engine",
    "resolve_engine_name",
    "resume",
    "resume_info",
    "run",
    "run_config",
    "run_matrix",
    "submit",
]
