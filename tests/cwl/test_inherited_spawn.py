"""A run's tools inherit the process's environment when it is exactly theirs.

Every engine spawns a tool with ``env=None`` when the run's environment
would be ``os.environ`` unchanged: ``PYTHONPATH`` already holds the package
root with absolute entries only, ``HOME`` and ``TMPDIR`` are set, no
``env`` or ``EnvVarRequirement`` adds a variable, and ``os.environ`` still
holds what it held at the run's first spawn.  Otherwise the tool gets a
mapping whose values are the ones it always got.  A Parsl bash app, which
belongs to no run, inherits on the ``PYTHONPATH`` rule alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from repro.cwl.loader import load_document
from repro.parsl.apps.bash import remote_side_bash_executor
from repro.utils import environment
from repro.utils.environment import RunEnvironment, package_root, pinned_pythonpath

from .test_miss_path import session_for

VAR = "REPRO_SPAWN_VAR"
COMMAND = f'echo "${VAR}"'

ENGINES = [("reference", "tool"), ("toil", "tool"), ("parsl", "tool"),
           ("reference", "workflow"), ("toil", "workflow"), ("parsl", "workflow"),
           ("parsl-workflow", "workflow")]


def echo_tool(env_def=None) -> dict:
    """Echoes ``$REPRO_SPAWN_VAR``; ``after`` only orders two steps."""
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", COMMAND],
        "inputs": {"after": {"type": "File?"}},
        "outputs": {"out": "stdout"}, "stdout": "echo.txt",
    }
    if env_def:
        tool["requirements"] = {"EnvVarRequirement": {"envDef": env_def}}
    return tool


def echo_workflow(env_def=None) -> dict:
    """Two steps, the second after the first: two spawns, one after the other."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
        "outputs": {"first": {"type": "File", "outputSource": "first/out"},
                    "second": {"type": "File", "outputSource": "second/out"}},
        "steps": {"first": {"run": echo_tool(env_def), "in": {}, "out": ["out"]},
                  "second": {"run": echo_tool(env_def), "in": {"after": "first/out"},
                             "out": ["out"]}},
    }


class PopenSpy:
    """The keyword arguments of each spawn of an echo tool, in order;
    ``after_spawn(n)`` runs once the ``n``-th has started."""

    def __init__(self, monkeypatch, after_spawn=None) -> None:
        self.spawns = []
        real = subprocess.Popen.__init__
        spy = self

        def init(popen, args, *rest, **kwargs):
            real(popen, args, *rest, **kwargs)
            if list(args) == ["sh", "-c", COMMAND]:
                spy.spawns.append(kwargs)
                if after_spawn is not None:
                    after_spawn(len(spy.spawns))

        monkeypatch.setattr(subprocess.Popen, "__init__", init)

    @property
    def envs(self) -> list:
        return [kwargs.get("env", "not passed") for kwargs in self.spawns]


def differences(envs: list, expected: dict) -> list:
    """Per spawn, each variable whose value is not ``expected``'s:
    ``{name: (got, expected)}`` (the whole environment is too long to read)."""
    return [env if not isinstance(env, dict) else
            {name: (env.get(name), expected.get(name)) for name in env.keys() | expected.keys()
             if env.get(name) != expected.get(name)}
            for env in envs]


@pytest.fixture
def inheritable(tmp_path, monkeypatch):
    """An environment a run's tools can inherit as it is."""
    home, tmp = tmp_path / "home", tmp_path / "tmp"
    home.mkdir()
    tmp.mkdir()
    monkeypatch.setenv("PYTHONPATH", package_root())
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setenv(VAR, "parent")


def run_echo(engine, kind, tmp_path, monkeypatch, env_def=None, after_spawn=None, **options):
    """``(echoed lines, the spawns' env= arguments, the spawns' kwargs,
    os.environ as the run started)``."""
    process = load_document(echo_tool(env_def) if kind == "tool" else echo_workflow(env_def))
    with session_for(engine, tmp_path / "work", monkeypatch, **options) as session:
        spy = PopenSpy(monkeypatch, after_spawn)
        parent = dict(os.environ)
        result = session.run(process, {})
    echoed = []
    for output in result.outputs.values():
        with open(output["path"]) as handle:
            echoed.append(handle.read().strip())
    assert len(spy.spawns) == len(echoed) == (1 if kind == "tool" else 2)
    return echoed, spy.envs, spy.spawns, parent


@pytest.mark.parametrize("engine,kind", ENGINES)
def test_a_tool_inherits_an_environment_that_is_exactly_its_own(engine, kind, tmp_path,
                                                                 monkeypatch, inheritable):
    echoed, envs, _, _ = run_echo(engine, kind, tmp_path, monkeypatch)
    assert envs == [None] * len(envs)
    assert echoed == ["parent"] * len(envs)


@pytest.mark.parametrize("engine,kind", ENGINES)
@pytest.mark.parametrize("case", ["context env", "EnvVarRequirement", "both, in order"])
def test_a_variable_the_run_adds_gets_a_mapping(case, engine, kind, tmp_path, monkeypatch,
                                                inheritable):
    options, env_def, added = {}, None, {}
    if case != "EnvVarRequirement":
        options["env"] = {VAR: "context", "REPRO_SPAWN_CONTEXT": "kept"}
        added.update(options["env"])
    if case != "context env":
        env_def = {VAR: "tool"}
        added.update(env_def)
    echoed, envs, _, parent = run_echo(engine, kind, tmp_path, monkeypatch, env_def, **options)
    assert differences(envs, dict(parent, **added)) == [{}] * len(envs)
    assert echoed == [added[VAR]] * len(envs)


@pytest.mark.parametrize("engine,kind", ENGINES)
def test_a_relative_pythonpath_entry_gets_the_pinned_mapping(engine, kind, tmp_path,
                                                             monkeypatch, inheritable):
    pythonpath = os.pathsep.join([package_root(), "relative-entry"])
    monkeypatch.setenv("PYTHONPATH", pythonpath)
    echoed, envs, _, parent = run_echo(engine, kind, tmp_path, monkeypatch)
    pinned = pinned_pythonpath(pythonpath)
    assert pinned == os.pathsep.join([package_root(), os.path.abspath("relative-entry")])
    assert differences(envs, dict(parent, PYTHONPATH=pinned)) == [{}] * len(envs)
    assert echoed == ["parent"] * len(envs)


@pytest.mark.parametrize("engine,kind", ENGINES)
@pytest.mark.parametrize("unset", ["TMPDIR", "HOME"])
def test_an_unset_default_gets_a_mapping_with_the_jobs_own(unset, engine, kind, tmp_path,
                                                          monkeypatch, inheritable):
    monkeypatch.delenv(unset)
    echoed, envs, spawns, parent = run_echo(engine, kind, tmp_path, monkeypatch)
    for env, kwargs in zip(envs, spawns):
        default = env.pop(unset)
        assert differences([env], parent) == [{}]
        if unset == "HOME":
            assert default == kwargs["cwd"]  # the job's output directory
        else:  # the job's scratch directory, under the context's prefix
            assert default.startswith(str(tmp_path / "work" / "scratch" / "cwl-tmp-"))
    assert echoed == ["parent"] * len(envs)


@pytest.mark.parametrize("engine", ["reference", "toil", "parsl", "parsl-workflow"])
def test_a_variable_changed_mid_run_sends_the_next_spawn_back_to_the_runs_mapping(
        engine, tmp_path, monkeypatch, inheritable):
    def change(spawned: int) -> None:
        if spawned == 1:
            monkeypatch.setenv(VAR, "changed")

    echoed, envs, _, parent = run_echo(engine, "workflow", tmp_path, monkeypatch,
                                       after_spawn=change)
    assert envs[0] is None
    assert differences(envs[1:], parent) == [{}]  # the run's snapshot, not the change
    assert echoed == ["parent", "parent"]


@pytest.mark.parametrize("pythonpath,inherits", [("root", True), ("root:relative", False),
                                                 ("unset", False)])
def test_a_bash_app_inherits_on_the_same_pythonpath_rule(pythonpath, inherits, tmp_path,
                                                         monkeypatch):
    """A bash app belongs to no run: it decides at each spawn, from
    ``PYTHONPATH`` alone."""
    entries = {"root": [package_root()], "root:relative": [package_root(), "relative-entry"]}
    if pythonpath == "unset":
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(entries[pythonpath]))
    monkeypatch.setenv(VAR, "bash")
    envs = []
    real = subprocess.Popen.__init__

    def init(popen, args, *rest, **kwargs):
        envs.append(kwargs.get("env", "not passed"))
        real(popen, args, *rest, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "__init__", init)
    out = tmp_path / "out.txt"
    assert remote_side_bash_executor(lambda: COMMAND, stdout=str(out)) == 0
    assert out.read_text() == "bash\n"
    if inherits:
        assert envs == [None]
    else:
        expected = dict(os.environ, PYTHONPATH=pinned_pythonpath(os.environ.get("PYTHONPATH", "")))
        assert differences(envs, expected) == [{}]


def test_racing_spawns_read_once_and_agree_on_inheriting(monkeypatch, inheritable):
    """More spawning threads than cores, switching every few microseconds:
    one read of the environment, every bare spawn inherits it and every
    spawn with an overlay gets the run's mapping plus that overlay."""
    reads = []
    real = environment.subprocess_environment

    def counted():
        reads.append(threading.get_ident())
        return real()

    monkeypatch.setattr(environment, "subprocess_environment", counted)
    parent = dict(os.environ)
    run = RunEnvironment()
    defaults = {"HOME": "/job", "TMPDIR": "/job/tmp"}
    results, errors = {}, []
    start = threading.Barrier(8)

    def spawn(number: int) -> None:
        try:
            start.wait(timeout=10)
            for _ in range(50):
                overlay = {"JOB": str(number)} if number % 2 else {}
                results.setdefault(number, []).append(run.popen_env(overlay, defaults=defaults))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spawn, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(reads) == 1
    for number, spawned in results.items():
        assert len(spawned) == 50
        if number % 2:
            assert differences(spawned, dict(parent, JOB=str(number))) == [{}] * 50
        else:
            assert spawned == [None] * 50
