"""What a job-cache miss costs beyond its spawn — counts, no clocks.

A miss stats each input once (the probe's one pass over the job order, whose
identities its publish reuses), stats each output once to publish it, writes
its manifest in one compact line and reads ``os.environ`` once per run, not
per spawn: a variable set between two runs still reaches the second run's
tools on every engine.
"""

from __future__ import annotations

import collections
import json
import os

import pytest

import repro
from repro import api
from repro.cwl.jobcache import MANIFEST_VERSION, JobCache
from repro.cwl.loader import load_document
from repro.cwl.runtime import RuntimeContext
from repro.cwl.types import build_file_value

RUNNERS = ("reference", "toil")


def join_tool() -> dict:
    """Two File inputs; one globbed output file and a stdout."""
    return {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", 'cat "$0" "$1" > joined.txt; echo done'],
        "inputs": {f"f{i}": {"type": "File", "inputBinding": {"position": i + 1}}
                   for i in range(2)},
        "outputs": {"joined": {"type": "File", "outputBinding": {"glob": "joined.txt"}},
                    "log": "stdout"},
        "stdout": "log.txt",
    }


def env_tool() -> dict:
    return {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", 'echo "$REPRO_MISS_PATH_VAR"'],
        "inputs": {}, "outputs": {"out": "stdout"}, "stdout": "env.txt",
    }


def env_workflow() -> dict:
    """Two jobs, so two spawns in each run."""
    return {
        "cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
        "outputs": {"out": {"type": "File", "outputSource": "show/out"},
                    "again": {"type": "File", "outputSource": "again/out"}},
        "steps": {"show": {"run": env_tool(), "in": {}, "out": ["out"]},
                  "again": {"run": env_tool(), "in": {}, "out": ["out"]}},
    }


def session_for(engine: str, workdir, monkeypatch, **options) -> api.Session:
    workdir.mkdir(parents=True, exist_ok=True)
    context = RuntimeContext(tmpdir_prefix=str(workdir / "scratch" / "cwl-tmp-"))
    if engine in RUNNERS:
        context = context.child(basedir=str(workdir / "jobs"))
    if engine == "toil":
        options["job_store_dir"] = str(workdir / "jobstore")
    if engine.startswith("parsl"):
        monkeypatch.chdir(workdir)
        options["config"] = repro.thread_config(
            max_threads=2, run_dir=str(workdir / "runinfo"))
    return api.Session(engine=engine, runtime_context=context, **options)


class StatSpy:
    """``os.stat`` calls and ``DirEntry.stat`` calls by path, and passes over
    ``os.environ`` (what decoding the whole environment takes)."""

    def __init__(self, monkeypatch) -> None:
        self.stats: collections.Counter = collections.Counter()
        self.environ_reads = 0
        self.publishing = False
        self.published: collections.Counter = collections.Counter()
        real_stat, real_scandir = os.stat, os.scandir
        real_iter = type(os.environ).__iter__
        real_store = JobCache.store_outdir
        spy = self

        def stat(path, *args, **kwargs):
            spy.count(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        class Entry:
            def __init__(self, entry) -> None:
                self._entry, self.name, self.path = entry, entry.name, entry.path

            def stat(self, **kwargs):
                spy.count(self.path)
                return self._entry.stat(**kwargs)

            def __getattr__(self, name):
                return getattr(self._entry, name)

        class Scan:
            def __init__(self, scan) -> None:
                self._scan = scan

            def __enter__(self):
                return self

            def __exit__(self, *exc) -> None:
                self._scan.close()

            def __iter__(self):
                return (Entry(entry) for entry in self._scan)

            def close(self) -> None:
                self._scan.close()

        def environ_iter(environ):
            spy.environ_reads += 1
            return real_iter(environ)

        def store_outdir(cache, *args, **kwargs):
            spy.publishing = True
            try:
                return real_store(cache, *args, **kwargs)
            finally:
                spy.publishing = False

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(os, "scandir", lambda path=".": Scan(real_scandir(path)))
        monkeypatch.setattr(type(os.environ), "__iter__", environ_iter)
        monkeypatch.setattr(JobCache, "store_outdir", store_outdir)

    def count(self, path: str) -> None:
        self.stats[path] += 1
        if self.publishing:
            self.published[path] += 1


def test_a_miss_stats_each_input_once_each_output_once_to_publish(tmp_path, monkeypatch):
    """One miss of a two-input tool on ``reference``: the probe's stat of
    each input is the only one (the key and the recorded command line share
    its identities), each output is stat once, by collection for its
    ``size``, and the publish uses that stat (it stats nothing of its own),
    and the environment is read once."""
    inputs = []
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text(f"{name}\n")
        inputs.append(build_file_value(str(tmp_path / name)))
    with session_for("reference", tmp_path / "work", monkeypatch,
                     cache_dir=str(tmp_path / "store")) as session:
        tool = load_document(join_tool())
        spy = StatSpy(monkeypatch)
        result = session.run(tool, {"f0": inputs[0], "f1": inputs[1]})

    assert result.cache_stats == {"hits": 0, "misses": 1}
    outputs = [result.outputs["joined"]["path"], result.outputs["log"]["path"]]
    assert {path: spy.stats[path] for path in (inputs[0]["path"], inputs[1]["path"])} \
        == {inputs[0]["path"]: 1, inputs[1]["path"]: 1}
    assert {path: spy.published[path] for path in outputs} == dict.fromkeys(outputs, 0)
    assert {path: spy.stats[path] for path in outputs} == dict.fromkeys(outputs, 1)
    assert spy.environ_reads <= 1


@pytest.mark.parametrize("engine", RUNNERS)
def test_a_path_only_input_is_stat_once(engine, tmp_path, monkeypatch):
    """An input given as ``{"class": "File", "path": ...}`` alone is stat'ed
    when the job builds its File value (for its ``size``), and the probe
    keys it from that stat instead of making another."""
    paths = []
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text(f"{name}\n")
        paths.append(str(tmp_path / name))
    with session_for(engine, tmp_path / "work", monkeypatch,
                     cache_dir=str(tmp_path / "store")) as session:
        tool = load_document(join_tool())
        spy = StatSpy(monkeypatch)
        result = session.run(tool, {f"f{i}": {"class": "File", "path": path}
                                    for i, path in enumerate(paths)})

    assert result.cache_stats == {"hits": 0, "misses": 1}
    assert {path: spy.stats[path] for path in paths} == dict.fromkeys(paths, 1)
    with open(result.outputs["joined"]["path"]) as handle:
        assert handle.read() == "a.txt\nb.txt\n"


def test_a_published_manifest_is_one_compact_line(tmp_path):
    cache = JobCache(str(tmp_path / "store"))
    outdir = tmp_path / "out"
    (outdir / "sub").mkdir(parents=True)
    (outdir / "a.txt").write_text("a")
    (outdir / "sub" / "b.txt").write_text("bb")
    cache.store_outdir("k", str(outdir), stdout_name="a.txt", exit_code=0,
                       command={"argv": ["tool", "$OUTDIR/a.txt"], "environment": {}})

    text = (tmp_path / "store" / "entries" / "k.json").read_text(encoding="utf-8")
    assert "\n" not in text
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    # What the indented form (the format earlier stores wrote) parses to.
    assert json.loads(json.dumps(parsed, indent=2, sort_keys=True)) == parsed
    assert parsed["version"] == MANIFEST_VERSION
    assert {rel: spec["size"] for rel, spec in parsed["files"].items()} == \
        {"a.txt": 1, os.path.join("sub", "b.txt"): 2}


def test_a_manifest_in_the_indented_format_is_still_a_hit(tmp_path, monkeypatch):
    data = tmp_path / "a.txt"
    data.write_text("one\n")
    order = {"f0": build_file_value(str(data)), "f1": build_file_value(str(data))}
    store = tmp_path / "store"
    tool = load_document(join_tool())
    with session_for("reference", tmp_path / "cold", monkeypatch,
                     cache_dir=str(store)) as session:
        cold = session.run(tool, dict(order))
    (manifest,) = (store / "entries").iterdir()
    manifest.write_text(json.dumps(json.loads(manifest.read_text()), indent=2,
                                   sort_keys=True), encoding="utf-8")
    with session_for("reference", tmp_path / "warm", monkeypatch,
                     cache_dir=str(store)) as session:
        warm = session.run(tool, dict(order))
    assert (cold.cache_stats, warm.cache_stats) == ({"hits": 0, "misses": 1},
                                                    {"hits": 1, "misses": 0})
    with open(warm.outputs["joined"]["path"]) as handle:
        assert handle.read() == "one\none\n"


@pytest.mark.parametrize("engine,kind", [
    ("reference", "tool"), ("toil", "tool"), ("parsl", "tool"),
    ("reference", "workflow"), ("toil", "workflow"), ("parsl", "workflow"),
    ("parsl-workflow", "workflow")])
def test_a_variable_set_between_two_runs_reaches_the_second(engine, kind, tmp_path,
                                                           monkeypatch):
    """The spawn environment is read once per run, however many jobs it
    spawns, and never kept past it: two runs on one session (one Parsl
    kernel, one ``CWLApp`` job family)."""
    process = load_document(env_tool() if kind == "tool" else env_workflow())
    echoed, reads = [], []
    with session_for(engine, tmp_path / "work", monkeypatch) as session:
        spy = StatSpy(monkeypatch)
        for value in ("first", "second"):
            monkeypatch.setenv("REPRO_MISS_PATH_VAR", value)
            result = session.run(process, {})
            for output in result.outputs.values():
                with open(output["path"]) as handle:
                    echoed.append(handle.read().strip())
            reads.append(spy.environ_reads - sum(reads))
    jobs = len(result.outputs)
    assert echoed == ["first"] * jobs + ["second"] * jobs
    assert reads == [1, 1]


def _walked(outdir: str):
    """What a snapshot held when it was an ``os.walk`` of the directory:
    regular files (symlinks followed) and directories with no entries."""
    files, empty = {}, []
    for root, dirs, names in os.walk(outdir):
        rel_root = os.path.relpath(root, outdir)
        for name in names:
            full = os.path.join(root, name)
            if os.path.isfile(full):
                files[os.path.normpath(os.path.join(rel_root, name))] = os.path.getsize(full)
        if not names and not dirs and rel_root != ".":
            empty.append(os.path.normpath(rel_root))
    return files, sorted(empty)


def test_store_outdir_keeps_what_a_walk_of_the_directory_kept(tmp_path):
    """A symlinked file is stored as its target's content, a symlinked
    directory is not entered, a FIFO and a dangling link are skipped, and
    an empty subdirectory is recorded (one holding only a link is not empty)."""
    outdir = tmp_path / "out"
    (outdir / "sub" / "deeper").mkdir(parents=True)
    (outdir / "empty" / "inner").mkdir(parents=True)
    (outdir / "links").mkdir()
    (outdir / "a.txt").write_text("a")
    (outdir / "sub" / "b.txt").write_text("bb")
    (outdir / "sub" / "deeper" / "c.txt").write_text("ccc")
    os.symlink(outdir / "a.txt", outdir / "link-to-file")
    os.symlink(outdir / "sub", outdir / "links" / "link-to-dir")
    os.symlink(tmp_path / "nowhere", outdir / "dangling")
    os.mkfifo(outdir / "sub" / "fifo")

    entry = JobCache(str(tmp_path / "store")).store_outdir("k", str(outdir))

    files, empty = _walked(str(outdir))
    assert {rel: spec["size"] for rel, spec in entry.files.items()} == files == {
        "a.txt": 1, "link-to-file": 1, os.path.join("sub", "b.txt"): 2,
        os.path.join("sub", "deeper", "c.txt"): 3}
    assert sorted(entry.dirs) == empty == [os.path.join("empty", "inner")]
    assert entry.files["link-to-file"]["cas"] == entry.files["a.txt"]["cas"]
