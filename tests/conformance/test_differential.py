"""Differential execution: the tier-1 conformance subset, in-process.

The full matrix (4 engines × 3 cache modes over the whole corpus plus 20
generated workflows) runs in the CI ``conformance`` job
via ``python -m repro.testing.conformance``; this module keeps a fast,
deterministic subset in tier-1 so an engine divergence fails `pytest` before
it ever reaches CI.
"""

from __future__ import annotations

import json
from typing import Dict

import pytest

from repro import api
from repro.testing.conformance import main as conformance_main
from repro.testing.differential import deep_compare, run_case
from repro.testing.report import build_report, write_report


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Parsl bash apps execute in the cwd; keep every test in its own."""
    monkeypatch.chdir(tmp_path)


#: Corpus cases whose conforming warm runs may re-execute a job, each with
#: the reason.  Expected to stay empty: a warm run that re-executes is a cache
#: that silently does nothing.
WARM_MISS_EXCEPTIONS: Dict[str, str] = {}


def _tier1_configs():
    """Every engine, cache off."""
    return api.matrix_configs(cache_modes=("off",))


def test_tier1_corpus_has_zero_divergences(tier1_corpus, tmp_path):
    """Every tier-1 case agrees with the reference engine on all engines,
    cache off and warm, and every job of a passing warm run is a hit."""
    assert tier1_corpus
    configs = api.matrix_configs(cache_modes=("off", "warm"))
    failures = []
    misses = []
    for case in tier1_corpus:
        outcome = run_case(case, configs, tmp_path / case.id)
        failures.extend(f"{case.id} :: {line}" for line in outcome.divergences)
        if case.id not in WARM_MISS_EXCEPTIONS:
            misses.extend(f"{case.id} :: {line}" for line in outcome.warm_misses)
    assert not failures, "\n".join(failures)
    assert not misses, "\n".join(misses)


def test_generated_workflows_have_zero_divergences(generated_suite, tmp_path):
    """Generated DAGs agree across all four engines (reference as oracle)."""
    for workflow in generated_suite[:2]:
        outcome = run_case(workflow.as_case(), _tier1_configs(), tmp_path / workflow.id)
        assert outcome.passed, "\n".join(outcome.divergences)
        # the reference baseline plus the three other engines all ran
        assert len(outcome.outcomes) == 4


def test_warm_cache_conforms_on_every_engine(corpus, tmp_path):
    """cache=warm replays bit-identical results on each engine."""
    case = next(case for case in corpus if case.id == "wf_scatter_dotproduct")
    configs = api.matrix_configs(cache_modes=("warm",))
    outcome = run_case(case, configs, tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)
    warm_runs = [config_outcome.run for config_outcome in outcome.outcomes
                 if config_outcome.run.config.cache == "warm"]
    assert warm_runs
    # every engine observably replays every job from the store on the warm leg
    for run in warm_runs:
        assert run.cache_hits() == run.result.jobs_run > 0, run.config.label
    assert not outcome.warm_misses


def test_compiled_and_uncompiled_agree(corpus, tmp_path):
    """The compile-once engines agree with the reference runner's fresh scope
    per evaluation: the pipeline changes cost only, never outputs."""
    case = next(case for case in corpus if case.id == "expression_lib_capitalize")
    configs = api.matrix_configs(engines=("toil", "parsl"), cache_modes=("off",))
    outcome = run_case(case, configs, tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)


def test_should_fail_case_fails_identically(corpus, tmp_path):
    case = next(case for case in corpus if case.id == "fail_permanent_exit")
    outcome = run_case(case, _tier1_configs(), tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)
    for config_outcome in outcome.outcomes:
        assert config_outcome.run.exit_class == "permanentFail"


def test_report_shape_and_write(tier1_corpus, tmp_path):
    case = tier1_corpus[0]
    configs = api.matrix_configs(engines=("reference", "toil"),
                                 cache_modes=("off",))
    outcome = run_case(case, configs, tmp_path / "runs")
    report = build_report([outcome], configs, meta={"tier1": True})
    path = write_report(tmp_path / "CONFORMANCE.json", report)

    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded["version"] == 1
    assert loaded["summary"]["cases"] == 1
    assert loaded["summary"]["divergences"] == 0
    assert case.id in loaded["cases"]
    assert loaded["cases"][case.id]["runs"]
    assert loaded["meta"]["tier1"] is True


def test_conformance_cli_tier1_single_case(tmp_path):
    """The module CLI runs end to end and writes the report."""
    report_path = tmp_path / "CONFORMANCE.json"
    rc = conformance_main([
        "--case", "echo_stdout", "--cache", "off",
        "--generated", "0", "--quiet", "--report", str(report_path),
        "--workdir", str(tmp_path / "work"),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["summary"] == {
        "cases": 1, "corpus_cases": 1, "generated_cases": 0,
        "runs": 3, "passed_cases": 1, "failed_cases": 0, "divergences": 0,
    }


def test_conformance_cli_rejects_unknown_case(tmp_path):
    rc = conformance_main(["--case", "no_such_case", "--generated", "0",
                           "--quiet", "--report", str(tmp_path / "C.json")])
    assert rc == 2


def test_deep_compare_reports_the_first_difference():
    assert deep_compare({"a": 1}, {"a": 1}) is None
    assert "$.a" in deep_compare({"a": 1}, {"a": 2})
    assert "length" in deep_compare([1, 2], [1])
    assert "missing key" in deep_compare({"a": 1, "b": 2}, {"a": 1})
    assert "unexpected key" in deep_compare({"a": 1}, {"a": 1, "b": 2})


def test_conformance_cli_fails_on_a_warm_miss(tmp_path, monkeypatch, capsys):
    """A warm run that re-executes a job fails the run like a divergence."""
    from repro.cwl.jobcache import JobCache

    monkeypatch.setattr(JobCache, "manifest", lambda self, key: None)
    report_path = tmp_path / "CONFORMANCE.json"
    rc = conformance_main([
        "--case", "echo_stdout", "--engine", "reference", "--cache", "warm",
        "--generated", "0", "--quiet", "--report", str(report_path),
        "--workdir", str(tmp_path / "work"),
    ])
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["summary"]["divergences"] == 0
    assert report["meta"]["warm_misses"] == 1
    assert "WARM MISS: echo_stdout" in capsys.readouterr().err
