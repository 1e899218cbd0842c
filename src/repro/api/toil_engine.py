"""The ``toil`` engine: the Toil-like job-store runner behind the unified API.

Its own module so that only a session that asks for ``toil`` imports the job
store, the batch systems and the cluster simulator behind them (see
:mod:`repro.api.engines` for the table of built-in engines).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.api.engines import RunnerEngine, _context_with_options
from repro.api.events import ExecutionHooks
from repro.api.result import ExecutionResult
from repro.cwl.runners.base import BaseRunner
from repro.cwl.runners.toil.runner import ToilStyleRunner
from repro.cwl.runtime import RuntimeContext


class ToilEngine(RunnerEngine):
    """The Toil-like job-store runner behind the unified API."""

    name = "toil"

    def __init__(self, job_store_dir: Optional[str] = None,
                 batch_system: Any = None,
                 runtime_context: Optional[RuntimeContext] = None,
                 parallel: bool = True, max_workers: int = 8,
                 import_outputs: bool = True, validate: bool = True,
                 destroy_job_store_on_close: Optional[bool] = None,
                 **options: Any) -> None:
        super().__init__()
        self._options = dict(
            job_store_dir=job_store_dir, batch_system=batch_system,
            runtime_context=_context_with_options(runtime_context, options),
            parallel=parallel, max_workers=max_workers,
            import_outputs=import_outputs, validate=validate)
        self._destroy_job_store = destroy_job_store_on_close

    def _make_runner(self) -> BaseRunner:
        return ToilStyleRunner(**self._options)

    def execute(self, process, job_order: Dict[str, Any],
                hooks: Optional[ExecutionHooks] = None) -> ExecutionResult:
        result = super().execute(process, job_order, hooks)
        result.details.setdefault("job_store", self._runner.job_store.stats())  # type: ignore[union-attr]
        return result

    def close(self) -> None:
        """Deterministically release backend state on ``Session`` exit.

        The batch system always shuts down; the job store is destroyed when
        the runner created it itself (a temp directory) or when the caller
        asked via ``destroy_job_store_on_close=True`` — so context-managed
        sessions never leak stores or batch-system threads between runs.
        """
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.close(destroy_job_store=self._destroy_job_store)  # type: ignore[attr-defined]
            runner.runtime_context.close()
