"""Differential execution of one case across the configuration matrix.

The oracle is :data:`repro.api.REFERENCE_CONFIG` — the cwltool-fidelity
reference runner, cache off, uncached expressions.  Every other
configuration must either

* succeed with **deep-equal canonical outputs** (checksums, sizes,
  basenames, ``secondaryFiles`` — see :mod:`repro.cwl.canonical`), or
* fail with the **same exit class** the reference failed with, as the
  case's ``expect`` says it must.

Anything else is a divergence, recorded per configuration on the
:class:`CaseOutcome`.

Equal outputs do not show that a ``cache=warm`` run replayed anything, so
warm runs are checked separately: every tool job of a conforming, successful
warm run should be a hit on the store its priming run filled, and
:attr:`ConfigOutcome.warm_misses` counts the ``miss`` outcomes.

Configurations with a fault profile (``MatrixConfig.faults``) are compared
against a *same-profile* reference baseline: the oracle for "engine X under
injected fault plan P" is the reference runner under exactly the same plan P.
Static corpus expectations are not checked against faulted baselines — a
fail-forever plan legitimately breaks a case that expects success; what the
fault matrix asserts is that all engines agree, fault for fault.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.api.matrix import REFERENCE_CONFIG, MatrixConfig, MatrixRun, run_config
from repro.cwl.canonical import expected_value
from repro.testing.corpus import CaseExpectation, ConformanceCase, materialize_job_order


@dataclass
class ConfigOutcome:
    """One configuration's verdict for one case."""

    run: MatrixRun
    #: ``None`` when the configuration conformed; otherwise what diverged.
    divergence: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.divergence is None

    @property
    def warm_misses(self) -> int:
        """Tool jobs of a conforming, successful ``cache=warm`` run that
        missed the store its priming run filled (0 elsewhere).  An
        ExpressionTool job is never cached, so it is no miss."""
        result = self.run.result
        if self.run.config.cache != "warm" or not self.passed or result is None:
            return 0
        return (result.cache_stats or {}).get("misses", 0)

    def describe(self) -> Dict[str, Any]:
        description = self.run.describe()
        description["passed"] = self.passed
        if self.divergence is not None:
            description["divergence"] = self.divergence
        if self.warm_misses:
            description["warm_misses"] = self.warm_misses
        return description


@dataclass
class CaseOutcome:
    """Every configuration's verdict for one case."""

    case_id: str
    origin: str  # "corpus" | "generated"
    outcomes: List[ConfigOutcome] = field(default_factory=list)
    #: Configurations skipped because the engine cannot run the document class.
    skipped: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def divergences(self) -> List[str]:
        return [f"{outcome.run.config.label}: {outcome.divergence}"
                for outcome in self.outcomes if outcome.divergence]

    @property
    def warm_misses(self) -> List[str]:
        """One line per warm configuration in which some job missed."""
        return [f"{outcome.run.config.label}: {outcome.warm_misses} of "
                f"{outcome.run.result.jobs_run} job(s) missed"
                for outcome in self.outcomes if outcome.warm_misses]


def _reference_for(faults: Optional[str]) -> MatrixConfig:
    """The oracle configuration for a given fault profile (None = no faults)."""
    return MatrixConfig("reference", faults=faults) if faults else REFERENCE_CONFIG


def _baseline_faults(configs: Sequence[MatrixConfig]) -> List[Optional[str]]:
    """The fault profiles whose baselines a run needs, no-fault oracle first."""
    seen: List[Optional[str]] = []
    for config in configs:
        if config.faults not in seen:
            seen.append(config.faults)
    if not seen:
        seen.append(None)
    if None in seen:  # the unfaulted oracle always runs first when needed
        seen.remove(None)
        seen.insert(0, None)
    return seen


def _baseline_dir(workdir: str, faults: Optional[str]) -> str:
    suffix = f"-faults-{faults}" if faults else ""
    return os.path.join(workdir, f"reference-baseline{suffix}")


def run_case(case: ConformanceCase, configs: Sequence[MatrixConfig],
             workdir: str, max_workers: int = 4) -> CaseOutcome:
    """Run one case — from the corpus, or a generated workflow's
    :meth:`~repro.testing.generator.GeneratedWorkflow.as_case` — under every
    applicable configuration."""
    workdir = os.path.abspath(workdir)
    job = materialize_job_order(case.job, os.path.join(workdir, "inputs"))
    engines = case.applicable_engines()

    outcome = CaseOutcome(case_id=case.id, origin=case.origin)
    baselines: Dict[Optional[str], MatrixRun] = {}
    for faults in _baseline_faults(configs):
        baseline = run_config(case.process, job, _reference_for(faults),
                              _baseline_dir(workdir, faults),
                              max_workers=max_workers)
        baselines[faults] = baseline
        # Case expectations describe unfaulted behaviour; a faulted baseline
        # is an oracle by definition (cross-engine agreement is what the
        # fault axis asserts; a fail-forever plan may break any case).
        outcome.outcomes.append(ConfigOutcome(
            run=baseline,
            divergence=_check_expectation(baseline, case.expect)
            if faults is None else None,
        ))

    for index, config in enumerate(configs):
        if config.engine not in engines:
            outcome.skipped.append(config.label)
            continue
        if config == _reference_for(config.faults):
            continue  # already ran as its profile's baseline
        run = run_config(case.process, job, config,
                         os.path.join(workdir, f"{index:03d}"),
                         max_workers=max_workers)
        outcome.outcomes.append(ConfigOutcome(
            run=run,
            divergence=_verdict(run, baselines[config.faults], case.expect),
        ))
    return outcome


# ---------------------------------------------------------------- comparison


def _verdict(run: MatrixRun, baseline: MatrixRun,
             expectation: CaseExpectation) -> Optional[str]:
    """Why ``run`` diverges from the oracle (``None`` = it conforms)."""
    if expectation.failure is None:
        if run.exit_class != baseline.exit_class:
            detail = run.error or "produced outputs"
            return (f"exit class {run.exit_class!r} != reference "
                    f"{baseline.exit_class!r} ({detail})")
        if not run.ok:
            return None  # both failed the same way the reference did
        divergence = deep_compare(baseline.outputs, run.outputs)
        if divergence is not None:
            return f"outputs differ from reference at {divergence}"
    return _check_expectation(run, expectation)


def _check_expectation(run: MatrixRun,
                       expectation: CaseExpectation) -> Optional[str]:
    """Check a run directly against a declared expectation."""
    if expectation.failure is not None:
        if run.exit_class != expectation.failure:
            return (f"expected failure class {expectation.failure!r}, got "
                    f"{run.exit_class!r} ({run.error or 'produced outputs'})")
        if expectation.match and expectation.match not in (run.error or ""):
            return (f"failure message {run.error!r} does not contain "
                    f"{expectation.match!r}")
        return None
    if not run.ok:
        return f"expected success, got {run.exit_class} ({run.error})"
    if expectation.outputs is not None:
        expected = {key: expected_value(value)
                    for key, value in expectation.outputs.items()}
        divergence = deep_compare(expected, run.outputs)
        if divergence is not None:
            return f"outputs differ from expectation at {divergence}"
    return None


def deep_compare(expected: Any, actual: Any, path: str = "$") -> Optional[str]:
    """First difference between two canonical values (``None`` = equal)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                return f"{path}.{key} (unexpected key, value {actual[key]!r})"
            if key not in actual:
                return f"{path}.{key} (missing key, expected {expected[key]!r})"
            difference = deep_compare(expected[key], actual[key], f"{path}.{key}")
            if difference is not None:
                return difference
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path} (length {len(actual)} != {len(expected)})"
        for index, (exp, act) in enumerate(zip(expected, actual)):
            difference = deep_compare(exp, act, f"{path}[{index}]")
            if difference is not None:
                return difference
        return None
    if expected != actual:
        return f"{path} ({actual!r} != {expected!r})"
    return None
