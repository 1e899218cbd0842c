"""Conformance and differential testing for every execution configuration.

The repository runs the same CWL subset through four engines, each with its
own expression pipeline, with or without the content-addressed job cache.
This package turns "they should all agree"
into a tested property, in the spirit of the CWL conformance suite and of
property-based differential testing of compilers:

* :mod:`repro.testing.corpus` — a declarative conformance corpus
  (``conformance/corpus/*.yaml``: document + job order + expected outputs /
  expected-failure class), loadable and runnable case by case.
* :mod:`repro.testing.generator` — a seeded, bounded property-based
  workflow generator emitting random DAGs of echo/upcase/cat/write tools
  with scatter, ``when`` guards and nested subworkflows, all inside the
  subset every engine supports.
* :mod:`repro.testing.differential` — runs one case across the engine ×
  cache × faults matrix (via :func:`repro.api.run_matrix`) and
  deep-compares each configuration's canonicalised outputs and exit classes
  against the reference engine (faulted configurations against a
  same-fault-profile reference baseline).
* :mod:`repro.testing.report` — aggregates case outcomes into the
  machine-readable ``CONFORMANCE.json`` report.
* :mod:`repro.testing.conformance` — the command line:
  ``python -m repro.testing.conformance`` runs the full corpus plus
  generated workflows across the full matrix and fails on any divergence.
"""

from repro.testing.corpus import (
    CaseExpectation,
    ConformanceCase,
    default_corpus_dir,
    load_corpus,
    materialize_job_order,
)
from repro.testing.differential import (
    CaseOutcome,
    ConfigOutcome,
    deep_compare,
    run_case,
)
from repro.testing.generator import GeneratedWorkflow, generate_suite, generate_workflow
from repro.testing.report import build_report, write_report

__all__ = [
    "CaseExpectation",
    "CaseOutcome",
    "ConfigOutcome",
    "ConformanceCase",
    "GeneratedWorkflow",
    "build_report",
    "deep_compare",
    "default_corpus_dir",
    "generate_suite",
    "generate_workflow",
    "load_corpus",
    "materialize_job_order",
    "run_case",
    "write_report",
]
