"""Aggregate case outcomes into the machine-readable ``CONFORMANCE.json``.

Report shape (version 1)::

    {
      "version": 1,
      "matrix": ["reference/cache=off", ...],
      "summary": {
        "cases": 47, "corpus_cases": 27, "generated_cases": 20,
        "runs": 1128, "passed_cases": 47, "failed_cases": 0,
        "divergences": 0
      },
      "divergences": ["case_id :: config :: what diverged", ...],
      "cases": {
        "<case id>": {
          "origin": "corpus" | "generated",
          "passed": true,
          "skipped": [...],
          "runs": [
            {"config": "...", "exit_class": "success", "passed": true,
             "jobs_run": 3, "wall_time_s": 0.12, "cache_stats": {...}},
            ...
          ]
        }
      }
    }

CI uploads the file as an artifact; the CLI fails the conformance job when
``summary.divergences`` or ``meta.warm_misses`` is non-zero.
``meta.warm_misses`` (written by the CLI) counts the ``cache=warm`` runs that conformed but
re-executed a job (each such run also carries ``"warm_misses"``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.api.matrix import MatrixConfig
from repro.testing.differential import CaseOutcome

REPORT_VERSION = 1


def build_report(outcomes: Sequence[CaseOutcome],
                 configs: Sequence[MatrixConfig],
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The JSON-ready report for one conformance run."""
    divergences: List[str] = []
    cases: Dict[str, Any] = {}
    runs = 0
    for outcome in outcomes:
        runs += len(outcome.outcomes)
        divergences.extend(f"{outcome.case_id} :: {line}"
                           for line in outcome.divergences)
        cases[outcome.case_id] = {
            "origin": outcome.origin,
            "passed": outcome.passed,
            "skipped": list(outcome.skipped),
            "runs": [config_outcome.describe()
                     for config_outcome in outcome.outcomes],
        }
    report: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "matrix": [config.label for config in configs],
        "summary": {
            "cases": len(outcomes),
            "corpus_cases": sum(1 for o in outcomes if o.origin == "corpus"),
            "generated_cases": sum(1 for o in outcomes if o.origin == "generated"),
            "runs": runs,
            "passed_cases": sum(1 for o in outcomes if o.passed),
            "failed_cases": sum(1 for o in outcomes if not o.passed),
            "divergences": len(divergences),
        },
        "divergences": divergences,
        "cases": cases,
    }
    if meta:
        report["meta"] = dict(meta)
    return report


def write_report(path: os.PathLike, report: Dict[str, Any]) -> str:
    """Write the report as stable (sorted, indented) JSON; returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
