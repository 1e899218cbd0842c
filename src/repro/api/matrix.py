"""Run one process across an engine × cache × faults × pipeline matrix.

The conformance/differential harness (:mod:`repro.testing`) needs to execute
the *same* document and job order under every supported configuration and
compare the results.  This module is the API-level half of that: a
:class:`MatrixConfig` names one configuration, :func:`run_config` executes a
process under it (handling the cold/warm cache protocol and per-run working
directories) and returns a :class:`MatrixRun` whose outputs are already
normalised to the engine-independent canonical form of
:mod:`repro.cwl.canonical`.

A configuration has four axes:

========== ==========================================================
engine     any registry name (``reference``/``toil``/``parsl``/
           ``parsl-workflow``)
cache      ``"off"`` (job cache disabled), ``"cold"`` (fresh store,
           single run) or ``"warm"`` (a priming run populates the
           store, a second run — the one reported — replays from it)
faults     ``None`` (no injection) or the name of a
           :func:`repro.cwl.faults.fault_profiles` entry — a seeded
           deterministic fault plan plus the retry policy that rides
           with it, applied identically to every engine
pipeline   ``None`` (engine default: the thread-pool scheduler core)
           or ``True`` — ``pipeline=True`` with ``max_inflight`` set
           to the worker count: the asyncio pipelined core on the
           runner engines; on the Parsl engines a cap on the steps
           parked on an unfinished task
========== ==========================================================
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.api.result import ExecutionResult
from repro.cwl.canonical import canonical_outputs
from repro.cwl.errors import error_class, exit_class, unwrap_failure
from repro.cwl.runtime import RuntimeContext

#: All built-in engines, in reporting order.
ENGINE_ORDER = ("reference", "toil", "parsl", "parsl-workflow")
#: The cache axis.
CACHE_MODES = ("off", "cold", "warm")


@dataclass(frozen=True)
class MatrixConfig:
    """One point of the engine × cache × faults × pipeline matrix."""

    engine: str
    cache: str = "off"
    #: Name of a fault profile (see :func:`repro.cwl.faults.fault_profiles`)
    #: to inject, or ``None``.  A *name* rather than the plan object keeps
    #: the config frozen/hashable; the plan is instantiated fresh per run.
    faults: Optional[str] = None
    #: ``True`` selects the asyncio pipelined scheduler core (runner
    #: engines) / a cap on parked steps (Parsl engines); ``None``
    #: keeps each engine's default core.
    pipeline: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.cache not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {self.cache!r} "
                             f"(expected one of {CACHE_MODES})")

    @property
    def label(self) -> str:
        """Stable human-readable identifier (used in reports and paths)."""
        label = f"{self.engine}/cache={self.cache}"
        if self.faults:
            label += f"/faults={self.faults}"
        if self.pipeline:
            label += "/pipeline=on"
        return label


#: The oracle every other configuration is compared against: the
#: cwltool-fidelity reference runner, no cache.
REFERENCE_CONFIG = MatrixConfig("reference")


@dataclass
class MatrixRun:
    """The normalised outcome of one configuration's execution."""

    config: MatrixConfig
    #: Canonical outputs (see :func:`repro.cwl.canonical.canonical_outputs`)
    #: when the run succeeded, else ``None``.
    outputs: Optional[Dict[str, Any]] = None
    #: Engine-independent outcome (``"success"`` or a failure class from
    #: :data:`repro.cwl.errors.EXIT_CLASSES`).
    exit_class: str = "success"
    #: Stable exception class name on failure.
    error_class: Optional[str] = None
    #: Failure message on failure.
    error: Optional[str] = None
    #: The raw result (present on success only).
    result: Optional[ExecutionResult] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.exit_class == "success"

    def cache_hits(self) -> int:
        return self.result.cache_hits() if self.result is not None else 0

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary (what conformance reports record per run)."""
        summary: Dict[str, Any] = {
            "config": self.config.label,
            "exit_class": self.exit_class,
        }
        if self.error is not None:
            summary["error_class"] = self.error_class
            summary["error"] = self.error
        if self.result is not None:
            summary["jobs_run"] = self.result.jobs_run
            summary["wall_time_s"] = round(self.result.wall_time_s, 6)
            if self.result.cache_stats is not None:
                summary["cache_stats"] = dict(self.result.cache_stats)
        return summary


def matrix_configs(engines: Sequence[str] = ENGINE_ORDER,
                   cache_modes: Sequence[str] = ("off",),
                   fault_modes: Sequence[Optional[str]] = (None,),
                   pipeline_modes: Sequence[Optional[bool]] = (None,),
                   ) -> List[MatrixConfig]:
    """The cross product of the four axes, in deterministic order."""
    return [MatrixConfig(engine, cache, faults, pipeline)
            for engine in engines
            for cache in cache_modes
            for faults in fault_modes
            for pipeline in pipeline_modes]


def run_config(process: Any, job_order: Optional[Dict[str, Any]],
               config: MatrixConfig, workdir: str,
               max_workers: int = 4) -> MatrixRun:
    """Execute ``process`` under one configuration; never raises.

    ``workdir`` is this run's private directory (created if missing): job
    directories, the Parsl run dir and — for the cache modes — the job-cache
    store all live beneath it, so runs cannot observe each other.  The
    ``warm`` protocol performs a priming run in a sibling directory first and
    reports the second, store-replaying run.
    """
    workdir = os.path.abspath(workdir)
    cache_dir: Optional[str] = None
    if config.cache in ("cold", "warm"):
        cache_dir = os.path.join(workdir, "jobcache")
    if config.cache == "warm":
        _execute(process, job_order, config, os.path.join(workdir, "prime"),
                 cache_dir, max_workers)
    run_dir = os.path.join(workdir, "run") if config.cache == "warm" else workdir
    return _execute(process, job_order, config, run_dir, cache_dir, max_workers)


def run_matrix(process: Any, job_order: Optional[Dict[str, Any]] = None, *,
               configs: Optional[Sequence[MatrixConfig]] = None,
               workdir: Optional[str] = None,
               max_workers: int = 4) -> List[MatrixRun]:
    """Execute ``process`` under every configuration; returns one run each.

    With no ``configs``, the four engines run cache-off.  With no ``workdir``, a temporary directory is used
    and removed afterwards (outputs are canonicalised — content-hashed —
    before the files disappear).
    """
    configs = list(configs) if configs is not None else matrix_configs()
    cleanup = workdir is None
    base = os.path.abspath(workdir) if workdir is not None \
        else tempfile.mkdtemp(prefix="repro-matrix-")
    try:
        runs = []
        for index, config in enumerate(configs):
            run_dir = os.path.join(base, f"{index:03d}-{_path_safe(config.label)}")
            runs.append(run_config(process, job_order, config, run_dir,
                                   max_workers=max_workers))
        return runs
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)


# ----------------------------------------------------------------- internals


def _path_safe(label: str) -> str:
    return label.replace("/", "_").replace("=", "-")


#: Executions chdir into their run directory (the Parsl bash apps execute in
#: the *current* working directory), so runs serialise process-wide: two
#: concurrent run_config calls must never interleave their cwd swaps.
_EXECUTE_LOCK = threading.Lock()


def _execute(process: Any, job_order: Optional[Dict[str, Any]],
             config: MatrixConfig, run_dir: str, cache_dir: Optional[str],
             max_workers: int) -> MatrixRun:
    from repro.api.session import run as api_run

    os.makedirs(run_dir, exist_ok=True)
    # Engines that execute in the current working directory (the Parsl bash
    # apps) must land in this run's private dir; restored afterwards.  The
    # lock makes the cwd swap safe under concurrent callers (they serialise).
    with _EXECUTE_LOCK:
        previous_cwd = os.getcwd()
        os.chdir(run_dir)
        try:
            result = api_run(
                _fresh(process), _fresh(job_order or {}),
                **_engine_options(config, run_dir, cache_dir, max_workers),
            )
        except Exception as exc:  # normalised, never propagated
            root = unwrap_failure(exc)
            return MatrixRun(config=config, exit_class=exit_class(exc),
                             error_class=error_class(exc), error=str(root))
        finally:
            os.chdir(previous_cwd)
    return MatrixRun(config=config, outputs=canonical_outputs(result.outputs),
                     result=result)


def _fresh(value: Any) -> Any:
    """Deep-copy dict-shaped documents/orders so runs cannot share mutations."""
    return copy.deepcopy(value) if isinstance(value, (dict, list)) else value


def _engine_options(config: MatrixConfig, run_dir: str,
                    cache_dir: Optional[str], max_workers: int) -> Dict[str, Any]:
    options: Dict[str, Any] = {"engine": config.engine}
    if config.engine not in ENGINE_ORDER:
        # Custom registered engines run with their defaults; the axes only
        # apply to engines that understand the options.
        return options
    retry_policy = fault_plan = None
    if config.faults:
        from repro.cwl.faults import get_fault_profile

        profile = get_fault_profile(config.faults)
        # A fresh plan per execution: plans record what they injected, and
        # the prime/report runs of the warm protocol must not share that.
        fault_plan = profile.make_plan()
        retry_policy = profile.policy
    # One context configures "the same run" on every engine.  The pipeline
    # axis bounds the in-flight window to the worker count: the pipelined
    # core's admission window on the runner engines, the cap on the bridge's
    # parked steps on the Parsl engines (which have no pipelined scheduler core).
    options["runtime_context"] = RuntimeContext(
        basedir=run_dir,
        cache_dir=cache_dir,
        job_cache=False if cache_dir is None else None,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        pipeline=bool(config.pipeline),
        max_inflight=max_workers if config.pipeline else None,
    )
    if config.engine in ("parsl", "parsl-workflow"):
        import repro

        options["config"] = repro.thread_config(
            max_threads=max_workers, run_dir=os.path.join(run_dir, "runinfo"))
    else:
        options["max_workers"] = max_workers
        if config.engine == "toil":
            options["job_store_dir"] = os.path.join(run_dir, "jobstore")
            options["destroy_job_store_on_close"] = True
    return options
