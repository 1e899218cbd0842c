"""Crash-safe runs: ``resume()`` of a journalled run.

A journalled run is any run with a *run directory*:
``api.run(doc, order, run_dir="run1/")`` (or ``Session(engine,
run_dir=...)``, or ``--rundir`` on every CLI) keeps an append-only JSONL
journal of state transitions plus a job-cache store scoped to the run (see
:mod:`repro.cwl.journal`).  If the process (or the whole interpreter) dies
mid-run — crash, SIGKILL, Ctrl-C — :func:`resume` picks the run back up from
the same directory: the document fingerprint is verified against the journal
header, the run re-executes against the same store, and every node that
completed before the interruption replays as a cache hit, so only incomplete
nodes actually re-execute.

This is deliberately *re-execution through the cache* rather than journal
replay: the journal tells us (and tests/operators) what happened, while
correctness of the resumed outputs rests on the content-addressed store —
the same mechanism that already guarantees warm-run equivalence across all
four engines.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cwl.journal import journal_header, node_states, read_journal, resume_header

__all__ = ["resume", "resume_info"]


def resume(run_dir: str, *, engine: Optional[str] = None,
           hooks: Any = None, **engine_options: Any):
    """Resume an interrupted journalled run from its run directory.

    Reads the journal header, refuses to continue if the process document
    changed since the original run (fingerprint mismatch), then re-runs it
    with the recorded job order in the same run directory: completed nodes
    replay from the run-scoped cache, incomplete nodes execute for real.
    ``engine=`` overrides the recorded engine (the cache store is
    engine-independent); ``engine_options`` pass through to
    :func:`repro.api.run`.
    """
    from repro.api.session import run

    header = resume_header(run_dir)
    return run(header["process"], dict(header.get("job_order") or {}),
               engine=engine or header.get("engine", "reference"), hooks=hooks,
               run_dir=run_dir, **engine_options)


def resume_info(run_dir: str) -> Dict[str, Any]:
    """Inspect a run directory without executing anything.

    Returns the header plus the final recorded per-node states and whether a
    terminal ``result`` record exists (i.e. the run actually finished).
    """
    records = read_journal(run_dir)
    header = journal_header(records)
    results = [r for r in records if r.get("kind") == "result"]
    return {
        "process": header.get("process"),
        "engine": header.get("engine"),
        "job_order": header.get("job_order"),
        "node_states": node_states(records),
        "completed": bool(results),
        "status": results[-1].get("status") if results else None,
    }
