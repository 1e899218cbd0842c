"""Fault-injection differential matrix: engines agree fault-for-fault.

The acceptance property for the fault axis: for every named fault profile,
every engine — with and without the job cache — produces results identical
to the reference engine running under *the same* profile.  Transient faults
must converge to identical successful outputs everywhere; fatal faults must
converge to the same failure class everywhere.  The heavier sweep runs in
the CI ``conformance-faults`` job; this keeps a deterministic tier-1 subset.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.cwl.faults import fault_profiles
from repro.testing.conformance import main as conformance_main
from repro.testing.differential import run_case

#: The two contrasting profiles the acceptance criterion requires: one that
#: recovers (retried to success) and one that exhausts (permanentFail).
PROFILES = ("transient-all", "fatal-all")


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Parsl bash apps execute in the cwd; keep every test in its own."""
    monkeypatch.chdir(tmp_path)


def fault_configs(faults, engines=api.ENGINE_ORDER, cache_modes=("off",)):
    return api.matrix_configs(engines=engines, cache_modes=cache_modes,
                              fault_modes=(faults,))


def outcome_for(corpus, case_id, configs, workdir):
    case = next(case for case in corpus if case.id == case_id)
    return run_case(case, configs, workdir)


@pytest.mark.parametrize("profile", PROFILES)
def test_fault_profile_has_zero_divergences_across_engines(
        profile, corpus, tmp_path):
    """All four engines agree with the faulted reference baseline."""
    outcome = outcome_for(corpus, "echo_stdout",
                          fault_configs(profile), tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)
    # echo_stdout is a bare tool, so the workflow-only bridge skips it.
    assert len(outcome.outcomes) + len(outcome.skipped) == len(api.ENGINE_ORDER)
    assert len(outcome.outcomes) >= 3
    expected_class = "success" if profile == "transient-all" else "permanentFail"
    for config_outcome in outcome.outcomes:
        assert config_outcome.run.exit_class == expected_class, \
            config_outcome.run.config.label


@pytest.mark.parametrize("profile", PROFILES)
def test_fault_profile_agrees_on_a_generated_workflow(
        profile, generated_suite, tmp_path):
    """A multi-step generated DAG also agrees under injected faults."""
    outcome = run_case(generated_suite[0].as_case(), fault_configs(profile), tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)


def test_faulted_and_unfaulted_configs_share_one_matrix(corpus, tmp_path):
    """Mixed fault axis: each config is judged against its own baseline."""
    configs = api.matrix_configs(engines=("reference", "toil"),
                                 cache_modes=("off",),
                                 fault_modes=(None, "transient-all"))
    outcome = outcome_for(corpus, "echo_stdout", configs, tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)
    labels = {c.run.config.label for c in outcome.outcomes}
    assert any("faults=transient-all" in label for label in labels)
    assert any("faults" not in label for label in labels)


def test_fault_axis_survives_the_job_cache(corpus, tmp_path):
    """cache=warm under faults: the replayed leg matches the faulted oracle."""
    configs = fault_configs("transient-all", engines=("reference", "toil"),
                            cache_modes=("warm",))
    outcome = outcome_for(corpus, "echo_stdout", configs, tmp_path)
    assert outcome.passed, "\n".join(outcome.divergences)
    # The faulted cache=off oracle rides along; only warm legs must hit.
    warm = [c for c in outcome.outcomes if c.run.config.cache == "warm"]
    assert warm
    for config_outcome in warm:
        assert config_outcome.run.cache_hits() > 0, \
            config_outcome.run.config.label


def test_flaky_half_profile_selects_deterministically(corpus, tmp_path):
    """The probabilistic profile is seeded: two sweeps, identical verdicts."""
    configs = fault_configs("flaky-half", engines=("reference", "toil"))
    first = outcome_for(corpus, "echo_stdout", configs, tmp_path / "a")
    second = outcome_for(corpus, "echo_stdout", configs, tmp_path / "b")
    assert first.passed and second.passed
    assert [c.run.exit_class for c in first.outcomes] == \
        [c.run.exit_class for c in second.outcomes]


def test_conformance_cli_runs_the_fault_axis(tmp_path):
    """``--faults`` end to end: report records the profiles and 0 divergences."""
    report_path = tmp_path / "CONFORMANCE_FAULTS.json"
    rc = conformance_main([
        "--case", "echo_stdout", "--engine", "reference", "--engine", "toil",
        "--cache", "off",
        "--faults", "transient-all", "--generated", "0", "--quiet",
        "--report", str(report_path), "--workdir", str(tmp_path / "work"),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["summary"]["divergences"] == 0
    assert report["meta"]["faults"] == ["transient-all"]


def test_conformance_cli_rejects_unknown_fault_profile(tmp_path):
    with pytest.raises(SystemExit):
        conformance_main(["--faults", "no-such-profile", "--generated", "0",
                          "--quiet", "--report", str(tmp_path / "C.json")])


def test_every_registered_profile_is_well_formed():
    for name, profile in fault_profiles().items():
        assert profile.name == name
        assert profile.description
        assert profile.make_plan().specs
        assert profile.policy.max_attempts >= 2
