"""The engine × cache × faults × pipeline matrix helper (`repro.api.run_matrix`)."""

from __future__ import annotations

import pytest

from repro import api
from repro.api.matrix import (
    CACHE_MODES,
    ENGINE_ORDER,
    REFERENCE_CONFIG,
    MatrixConfig,
    matrix_configs,
    run_config,
    run_matrix,
)

ECHO_TOOL = {
    "cwlVersion": "v1.2",
    "class": "CommandLineTool",
    "baseCommand": "echo",
    "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
    "outputs": {"output": {"type": "stdout"}},
    "stdout": "echoed.txt",
}

FAILING_TOOL = {
    "cwlVersion": "v1.2",
    "class": "CommandLineTool",
    "baseCommand": ["bash", "-c", "exit 5"],
    "inputs": {},
    "outputs": {"output": {"type": "stdout"}},
    "stdout": "none.txt",
}


def test_matrix_configs_cross_product_order():
    configs = matrix_configs(("reference", "toil"), ("off", "warm"), (None, "fatal-all"))
    assert len(configs) == 8
    assert configs[0] == MatrixConfig("reference", "off", None)
    assert configs[-1] == MatrixConfig("toil", "warm", "fatal-all")


def test_matrix_config_labels_are_stable():
    assert MatrixConfig("toil", "warm", "fatal-all").label == "toil/cache=warm/faults=fatal-all"
    assert REFERENCE_CONFIG.label == "reference/cache=off"
    assert set(CACHE_MODES) == {"off", "cold", "warm"}
    assert ENGINE_ORDER[0] == "reference"


def test_unknown_cache_mode_is_rejected():
    with pytest.raises(ValueError, match="cache mode"):
        MatrixConfig("reference", cache="lukewarm")


def test_run_config_normalises_success(tmp_path):
    run = run_config(ECHO_TOOL, {"message": "canonical"},
                     REFERENCE_CONFIG, str(tmp_path))
    assert run.ok and run.exit_class == "success"
    assert run.outputs["output"]["basename"] == "echoed.txt"
    assert run.outputs["output"]["checksum"].startswith("sha1$")
    assert "path" not in run.outputs["output"], "canonical outputs carry no paths"
    assert run.result is not None and run.result.jobs_run == 1


def test_run_config_normalises_failure(tmp_path):
    run = run_config(FAILING_TOOL, {}, REFERENCE_CONFIG, str(tmp_path))
    assert not run.ok
    assert run.exit_class == "permanentFail"
    assert run.error_class == "JobFailure"
    assert "exit code 5" in run.error
    assert run.outputs is None and run.result is None


def test_warm_cache_replays_from_the_store(tmp_path):
    run = run_config(ECHO_TOOL, {"message": "twice"},
                     MatrixConfig("reference", cache="warm"), str(tmp_path))
    assert run.ok
    assert run.cache_hits() >= 1, "the warm leg must replay from the store"
    cold = run_config(ECHO_TOOL, {"message": "twice"},
                      MatrixConfig("reference", cache="cold"),
                      str(tmp_path / "cold"))
    assert cold.ok and cold.cache_hits() == 0
    assert cold.outputs == run.outputs


def test_run_matrix_defaults_to_all_engines_cache_off(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = run_matrix(ECHO_TOOL, {"message": "all engines"},
                      workdir=str(tmp_path / "matrix"))
    by_engine = {run.config.engine: run for run in runs}
    assert set(by_engine) == set(ENGINE_ORDER)
    # parsl-workflow cannot run a bare tool: normalised to a failure, not a crash
    assert not by_engine["parsl-workflow"].ok
    tool_runs = [by_engine[e] for e in ("reference", "toil", "parsl")]
    assert all(run.ok for run in tool_runs)
    assert len({str(run.outputs) for run in tool_runs}) == 1


def test_run_describe_is_json_ready(tmp_path):
    run = run_config(ECHO_TOOL, {"message": "x"}, REFERENCE_CONFIG, str(tmp_path))
    description = run.describe()
    assert description["config"] == REFERENCE_CONFIG.label
    assert description["exit_class"] == "success"
    assert description["jobs_run"] == 1
    assert "wall_time_s" in description


# ------------------------------------------------------------ pipeline axis

def test_pipeline_axis_expands_and_labels():
    configs = matrix_configs(("reference",), ("off",), (None,),
                             pipeline_modes=(None, True))
    assert [c.pipeline for c in configs] == [None, True]
    assert configs[0].label == "reference/cache=off"
    assert configs[1].label == "reference/cache=off/pipeline=on"


def test_run_config_pipeline_matches_default_core(tmp_path):
    tool = {key: value for key, value in ECHO_TOOL.items() if key != "cwlVersion"}
    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"message": "string"},
        "outputs": {"out": {"type": "File", "outputSource": "only/output"}},
        "steps": {"only": {"run": tool, "in": {"message": "message"},
                           "out": ["output"]}},
    }
    baseline = run_config(doc, {"message": "pipelined"},
                          MatrixConfig("reference"), str(tmp_path / "plain"))
    piped = run_config(doc, {"message": "pipelined"},
                       MatrixConfig("reference", pipeline=True),
                       str(tmp_path / "piped"))
    assert piped.ok and baseline.ok
    assert piped.outputs == baseline.outputs
    assert piped.result.stage_timings is not None
    assert baseline.result.stage_timings is None


def test_conformance_cli_parses_pipeline_modes():
    from repro.testing.conformance import _configs_from, _parse_args

    args = _parse_args(["--engine", "reference", "--cache", "off",
                        "--pipeline", "default,on"])
    configs = _configs_from(args)
    assert [c.pipeline for c in configs] == [None, True]
    with pytest.raises(SystemExit):
        _configs_from(_parse_args(["--pipeline", "sideways"]))


def test_malformed_document_is_invalid_with_one_message_on_every_engine(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    broken = tmp_path / "broken.cwl"
    broken.write_text("class: CommandLineTool\ninputs: [a, b\nbaseCommand: echo\n")
    runs = run_matrix(str(broken), {}, workdir=str(tmp_path / "matrix"))
    assert [run.config.engine for run in runs] == list(ENGINE_ORDER)
    assert {(run.exit_class, run.error_class, run.error) for run in runs} == {
        ("invalid", "ValidationException", f"{broken}:3:12: invalid YAML (ParserError)")}
