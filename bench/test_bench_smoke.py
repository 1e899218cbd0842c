"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs every workload once at ``--scale smoke`` and checks what later changes
rely on: every name in BENCHMARK.json is reported with its unit, nothing
fails, every wrap target still resolves, and span self times add up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bench import harness, layers
from bench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "smoke", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        return proc.stdout, json.load(handle)["workloads"]


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_lists_exactly_what_the_code_reports():
    contract = _contract()
    assert contract["per_layer"] == layers.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"] for m in contract["end_to_end"]} >= {"setup_s"}
    assert contract["paths"] == ["bench"]


def test_every_metric_is_printed_with_its_unit_and_nothing_fails(smoke):
    stdout, results = smoke
    contract = _contract()
    assert sorted(results) == sorted(w["name"] for w in contract["workloads"])
    for workload, result in results.items():
        assert result["failed"] == 0 and result["correct"], result["problems"]
        assert result["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for listed in contract[section]:
                metric = result[section][listed["name"]]
                assert metric["unit"] == listed["unit"], (workload, listed["name"])
                assert isinstance(metric["value"], (int, float))
                assert f"  {listed['name']} " in stdout
        assert all(result["end_to_end"][m["name"]]["value"] > 0 for m in contract["end_to_end"])
    assert "ops_failed = 0" in stdout


def test_warm_run_hits_everything_and_cold_run_nothing(smoke):
    _, results = smoke
    for column in ("reference", "toil", "parsl"):
        assert results["dag_warm"]["per_layer"][f"cache.hit_ratio.{column}"]["value"] == 1.0
        assert results["dag_cold"]["per_layer"][f"cache.hit_ratio.{column}"]["value"] == 0.0
    for column in ("reference", "toil"):
        assert results["dag_warm"]["per_layer"][f"exec.spawns.{column}"]["value"] == 0


def test_every_wrap_target_resolves_and_self_times_add_up(smoke):
    _, results = smoke
    for workload, result in results.items():
        assert result["per_layer"]["trace.targets_missing"]["value"] == 0
        for column in ("reference", "toil", "parsl"):
            path = os.path.join(harness.OUT_DIR, f"trace.{workload}.{column}.json")
            with open(path, encoding="utf-8") as handle:
                dumped = json.load(handle)
            assert all(count >= 1 for count in dumped["patched"].values()), dumped["patched"]
            tracer = Tracer()
            tracer.spans = [tuple(span) for span in dumped["spans"]]
            assert tracer.spans
            own = tracer.self_times()
            per_thread = {}
            for span in tracer.spans:
                per_thread[span[3]] = per_thread.get(span[3], 0.0) + own[span[0]][0]
            roots = tracer.root_durations()
            assert per_thread.keys() == roots.keys()
            for thread, total in per_thread.items():
                assert total == pytest.approx(roots[thread], rel=1e-6, abs=1e-6)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    from bench import compare

    def results(scale):
        samples = {name: [scale * (1.0 + 0.01 * i) for i in range(5)]
                   for name, _ in harness.END_TO_END}
        return {"workloads": {"dag_cold": {"samples": samples}}}

    paths = []
    for label, scale in (("a", 1.0), ("same", 1.02), ("slow", 1.5)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(results(scale)))
        paths.append(str(path))
    assert compare.compare(paths[0], paths[1], _contract()) == 0
    assert compare.compare(paths[0], paths[2], _contract()) == 1
    assert compare.verdict([1.0, 1.5, 2.0, 2.5], [1.1, 1.6, 2.1, 2.6], 0.10) == "unresolved"
