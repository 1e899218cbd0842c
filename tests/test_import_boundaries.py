"""What a process imports, counted in fresh interpreters (no clocks).

The package surfaces are lazy (``repro/_lazy.py``) so that a process loads
what it uses: a tool process only the imaging code, a ``reference`` session no
Parsl substrate, a thread-pool configuration no HTEX.  The other half of the
contract is that laziness never reaches into a run: whatever an engine's
``execute`` needs is imported once the session is open and the document is
loaded, so no import lands in the timed run window.  Both halves are checked
here as sets of ``sys.modules`` names.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("reference", "toil", "parsl", "parsl-workflow")
LAZY_PACKAGES = ("repro", "repro.api", "repro.core", "repro.cwl", "repro.cwl.runners",
                 "repro.parsl", "repro.parsl.executors", "repro.parsl.providers",
                 "repro.utils")

WORKFLOW = """\
cwlVersion: v1.2
class: Workflow
inputs: {message: string}
outputs: {final: {type: File, outputSource: copy/out}}
steps:
  say:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs: {message: {type: string, inputBinding: {position: 1}}}
      stdout: said.txt
      outputs: {out: {type: stdout}}
    in: {message: message}
    out: [out]
  copy:
    run:
      class: CommandLineTool
      baseCommand: cat
      inputs: {source: {type: File, inputBinding: {position: 1}}}
      stdout: copied.txt
      outputs: {out: {type: stdout}}
    in: {source: say/out}
    out: [out]
"""


def modules_after(script: str, cwd: Path, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_JOBCACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def under(modules, *prefixes: str) -> list:
    return sorted(name for name in modules
                  if any(name == p or name.startswith(p + ".") for p in prefixes))


# ------------------------------------------------------------ what is loaded


def test_a_tool_process_imports_the_imaging_code_and_nothing_else_of_ours(tmp_path):
    loaded = modules_after(
        "import sys, json, repro.imaging.cli; print(json.dumps(sorted(sys.modules)))",
        tmp_path)
    assert under(loaded, "repro.parsl", "repro.cwl", "repro.core", "repro.api",
                 "repro.cluster", "repro.utils", "yaml", "asyncio") == []
    ours = under(loaded, "repro")
    assert set(ours) - {"repro", "repro._lazy"} == set(under(loaded, "repro.imaging"))


def test_thread_config_loads_no_htex_provider_or_cluster_module(tmp_path):
    loaded = modules_after(
        "import sys, json, repro\n"
        "repro.thread_config(max_threads=2)\n"
        "print(json.dumps(sorted(sys.modules)))", tmp_path)
    assert "repro.parsl.executors.threads" in loaded
    assert under(loaded, "repro.parsl.executors.high_throughput",
                 "repro.parsl.executors.processes", "repro.cluster") == []
    assert under(loaded, "repro.parsl.providers") == ["repro.parsl.providers"]


def test_engines_are_listed_before_any_engine_module_is_imported(tmp_path):
    found = modules_after(
        "import sys, json, repro\n"
        "names = repro.api.list_engines()\n"
        "print(json.dumps({'names': names, 'modules': sorted(sys.modules)}))", tmp_path)
    assert found["names"] == sorted(ENGINES)
    assert under(found["modules"], "repro.api.parsl_engines", "repro.cwl.runners",
                 "repro.parsl") == []


# --------------------------------------- set-up imports all a run will need

SESSION_SCRIPT = r"""
import json, os, sys
import repro

engine, cache, document = sys.argv[1], sys.argv[2] == "cache", sys.argv[3]

def snapshot():
    return sorted(name for name in sys.modules
                  if name.partition(".")[0] in ("repro", "asyncio"))

options = {"cache_dir": os.path.abspath("store")} if cache else {}
if engine.startswith("parsl"):
    options["config"] = repro.thread_config(max_threads=2, run_dir=os.path.abspath("runinfo"))
session = repro.api.Session(engine, **options)
workflow = repro.api.Engine.load_process(document)
tool = workflow.steps[0].embedded_process
ready = snapshot()
for _ in range(2):                      # with a cache: a miss, then a hit
    result = session.run(workflow, {"message": "hello"})
    assert result.status == "success" and result.jobs_run == 2
    if engine != "parsl-workflow":      # which refuses a bare tool
        assert session.run(tool, {"message": "hello"}).status == "success"
ran = snapshot()
session.close()
print(json.dumps({"ready": ready, "ran": ran, "closed": snapshot()}))
"""


@pytest.mark.parametrize("cache", ["nocache", "cache"])
@pytest.mark.parametrize("engine", ENGINES)
def test_nothing_is_imported_between_ready_to_submit_and_close(engine, cache, tmp_path):
    document = tmp_path / "two_steps.cwl"
    document.write_text(WORKFLOW)
    seen = modules_after(SESSION_SCRIPT, tmp_path, engine, cache, str(document))
    assert seen["ran"] == seen["ready"], sorted(set(seen["ran"]) - set(seen["ready"]))
    assert seen["closed"] == seen["ready"]
    assert under(seen["ready"], "asyncio") == [], "only pipeline=True needs asyncio"
    assert under(seen["ready"], "repro.testing") == []
    if engine == "reference":
        assert under(seen["ready"], "repro.parsl", "repro.cluster", "repro.core",
                     "repro.cwl.runners.toil") == []
    if engine == "toil":
        assert under(seen["ready"], "repro.parsl", "repro.core") == []
    if engine.startswith("parsl"):
        assert under(seen["ready"], "repro.cluster", "repro.cwl.runners.toil",
                     "repro.parsl.executors.high_throughput") == []


def test_the_pipelined_core_is_what_imports_asyncio(tmp_path):
    document = tmp_path / "two_steps.cwl"
    document.write_text(WORKFLOW)
    seen = modules_after(
        "import sys, json, repro\n"
        "session = repro.api.Session('reference', pipeline=True)\n"
        "workflow = repro.api.Engine.load_process(sys.argv[1])\n"
        "ready = 'asyncio' in sys.modules\n"
        "session.run(workflow, {'message': 'hello'})\n"
        "session.close()\n"
        "print(json.dumps({'ready': ready, 'ran': 'asyncio' in sys.modules}))",
        tmp_path, str(document))
    assert seen == {"ready": False, "ran": True}


# ------------------------------------------------- the surfaces still resolve


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_is_listed_and_star_imports(package, tmp_path):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module), name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    # In a fresh interpreter, where nothing has been resolved yet.
    fresh = modules_after(
        f"import json, {package} as m; print(json.dumps(sorted(set(m.__all__) - set(dir(m)))))",
        tmp_path)
    assert fresh == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_attribute_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        module.nope
    with pytest.raises(ImportError):
        exec(f"from {package} import nope", {})


def test_plan_and_resume_are_the_functions_not_the_submodules_they_live_in():
    from repro import api

    assert api.plan is importlib.import_module("repro.api.plan").plan
    assert api.resume is importlib.import_module("repro.api.resume").resume
