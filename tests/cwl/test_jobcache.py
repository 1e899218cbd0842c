"""Unit tests for the content-addressed job cache (repro.cwl.jobcache)."""

from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import threading

import pytest

from repro.cwl.job import CommandLineJob
from repro.cwl.jobcache import (
    MANIFEST_VERSION,
    JobCache,
    file_fingerprint,
    get_job_cache,
    job_key,
    resolve_job_cache,
    stage_file,
)
from repro.cwl.loader import load_document, load_tool
from repro.cwl.runtime import RuntimeContext
from repro.utils.continuation import finish
from repro.utils.hashing import hash_file


def echo_tool(message_default: str = "hi", stdout: str = "out.txt") -> dict:
    return {
        "class": "CommandLineTool",
        "baseCommand": "echo",
        "inputs": {"message": {"type": "string", "default": message_default,
                               "inputBinding": {"position": 1}}},
        "outputs": {"out": "stdout"},
        "stdout": stdout,
    }


# ----------------------------------------------------------------- stage_file


def test_stage_file_hardlinks_on_same_filesystem(tmp_path):
    source = tmp_path / "src.txt"
    source.write_text("payload")
    destination = tmp_path / "nested" / "dst.txt"
    how = stage_file(str(source), str(destination))
    assert how == "link"
    assert destination.read_text() == "payload"
    assert os.stat(source).st_ino == os.stat(destination).st_ino


def test_stage_file_prefer_copy_never_links(tmp_path):
    source = tmp_path / "src.txt"
    source.write_text("payload")
    destination = tmp_path / "dst.txt"
    how = stage_file(str(source), str(destination), prefer_copy=True)
    assert how == "copy"
    assert destination.read_text() == "payload"
    assert os.stat(source).st_ino != os.stat(destination).st_ino


def test_stage_file_overwrite_replaces_and_kept_preserves(tmp_path):
    source = tmp_path / "src.txt"
    source.write_text("new")
    destination = tmp_path / "dst.txt"
    destination.write_text("old")
    assert stage_file(str(source), str(destination), overwrite=False) == "kept"
    assert destination.read_text() == "old"
    stage_file(str(source), str(destination))
    assert destination.read_text() == "new"


def test_stage_file_onto_a_link_of_itself_leaves_no_temporary_file(tmp_path):
    """Staging a warm output where an earlier run staged the same cached
    body: renaming a link onto a link of the same file does nothing, so the
    temporary name must not be made."""
    source = tmp_path / "src.txt"
    source.write_text("payload")
    destination = tmp_path / "out" / "dst.txt"
    stage_file(str(source), str(destination))
    assert stage_file(str(source), str(destination)) == "link"
    assert os.listdir(tmp_path / "out") == ["dst.txt"]


# ----------------------------------------------------------------- fingerprints


def test_file_fingerprint_tracks_content_not_path(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("same content")
    b.write_text("same content")
    assert file_fingerprint(str(a)) == file_fingerprint(str(b))
    b.write_text("different content")
    assert file_fingerprint(str(a)) != file_fingerprint(str(b))


def test_job_key_stable_across_processes_and_orderings(tmp_path):
    tool = load_tool(echo_tool())
    again = load_tool(echo_tool())
    key_one = job_key(tool, {"a": 1, "b": 2}, cores=1, ram_mb=1024)
    key_two = job_key(again, {"b": 2, "a": 1}, cores=1, ram_mb=1024)
    assert key_one == key_two


def test_job_key_treats_none_as_omitted(tmp_path):
    tool = load_tool(echo_tool())
    explicit = job_key(tool, {"message": "x", "opt": None}, cores=1, ram_mb=1024)
    omitted = job_key(tool, {"message": "x"}, cores=1, ram_mb=1024)
    assert explicit == omitted


def test_job_key_invalidates_on_tool_document_edit():
    key_one = job_key(load_tool(echo_tool()), {"message": "x"}, cores=1, ram_mb=1024)
    key_two = job_key(load_tool(echo_tool(stdout="other.txt")), {"message": "x"},
                      cores=1, ram_mb=1024)
    assert key_one != key_two


def test_job_key_invalidates_on_input_file_content_change(tmp_path):
    tool = load_tool(echo_tool())
    data = tmp_path / "input.txt"
    data.write_text("v1")
    order = {"message": "x",
             "extra": {"class": "File", "path": str(data), "basename": "input.txt"}}
    key_one = job_key(tool, order, cores=1, ram_mb=1024)
    data.write_text("v2")
    key_two = job_key(tool, order, cores=1, ram_mb=1024)
    assert key_one != key_two


def test_job_key_ignores_input_file_location(tmp_path):
    """Same content at a different path fingerprints identically."""
    tool = load_tool(echo_tool())
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    one, two = tmp_path / "a" / "f.txt", tmp_path / "b" / "f.txt"
    one.write_text("identical"), two.write_text("identical")
    key_one = job_key(tool, {"f": {"class": "File", "path": str(one), "basename": "f.txt"}},
                      cores=1, ram_mb=1024)
    key_two = job_key(tool, {"f": {"class": "File", "path": str(two), "basename": "f.txt"}},
                      cores=1, ram_mb=1024)
    assert key_one == key_two


def test_job_key_invalidates_on_runtime_resources_and_env():
    tool = load_tool(echo_tool())
    base = job_key(tool, {"message": "x"}, cores=1, ram_mb=1024)
    assert job_key(tool, {"message": "x"}, cores=4, ram_mb=1024) != base
    assert job_key(tool, {"message": "x"}, cores=1, ram_mb=2048) != base
    assert job_key(tool, {"message": "x"}, cores=1, ram_mb=1024,
                   extra_env={"MODE": "fast"}) != base


# ---------------------------------------------------------------------- store


def test_store_and_restore_roundtrip(tmp_path):
    cache = JobCache(str(tmp_path / "store"))
    outdir = tmp_path / "job"
    (outdir / "sub").mkdir(parents=True)
    (outdir / "result.txt").write_text("result body")
    (outdir / "sub" / "nested.txt").write_text("nested body")

    cache.store_outdir("k1", str(outdir), stdout_name="result.txt")
    entry = cache.lookup("k1")
    assert entry is not None and entry.stream_name("stdout") == "result.txt"

    restored = tmp_path / "restored"
    cache.restore(entry, str(restored))
    assert (restored / "result.txt").read_text() == "result body"
    assert (restored / "sub" / "nested.txt").read_text() == "nested body"
    # Zero-copy: the restored file shares its inode with the CAS body.
    cas_body = cache.cas_body(entry, "result.txt")
    assert os.stat(cas_body).st_ino == os.stat(restored / "result.txt").st_ino


def test_lookup_of_an_unknown_key_is_a_miss(tmp_path):
    cache = JobCache(str(tmp_path / "store"))
    assert cache.lookup("nope") is None


def test_truncated_cas_body_invalidates_entry(tmp_path):
    cache = JobCache(str(tmp_path / "store"))
    outdir = tmp_path / "job"
    outdir.mkdir()
    (outdir / "out.txt").write_text("full body here")
    entry = cache.store_outdir("k1", str(outdir))
    # Simulate an in-place rewrite of a hardlinked body.
    with open(cache.cas_body(entry, "out.txt"), "w") as handle:
        handle.write("x")
    assert cache.lookup("k1") is None


def test_store_files_refuses_paths_outside_outdir(tmp_path):
    cache = JobCache(str(tmp_path / "store"))
    outside = tmp_path / "outside.txt"
    outside.write_text("not cacheable")
    assert cache.store_files("k1", str(tmp_path / "job"), [str(outside)]) is None
    assert cache.lookup("k1") is None


def test_an_entry_of_an_older_manifest_version_is_a_clean_miss(tmp_path):
    """A version-1 entry may record a ``CWLApp`` caller's redirection as the
    tool's stream: the run misses, names its file as the tool does and
    stores the entry again under the current version."""
    tool = load_document(echo_tool())
    store = tmp_path / "store"

    def run(basedir: str):
        context = RuntimeContext(basedir=str(tmp_path / basedir), cache_dir=str(store))
        probe = finish(CommandLineJob(tool, {"message": "old"}, context).probe())
        return probe, CommandLineJob(tool, {"message": "old"}, context).execute(probe)

    _, first = run("first")
    [name] = os.listdir(store / "entries")
    with open(store / "entries" / name) as handle:
        manifest = json.load(handle)
    manifest.update(version=1, streams={"stdout": "mine.txt", "stderr": None},
                    files={"mine.txt": manifest["files"]["out.txt"]})
    with open(store / "entries" / name, "w") as handle:
        json.dump(manifest, handle)

    probe, second = run("second")
    assert probe.key == first.cache_key and probe.entry is None
    assert not second.cache_hit
    assert os.path.basename(second.outputs["out"]["path"]) == "out.txt"
    with open(store / "entries" / name) as handle:
        assert json.load(handle)["version"] == MANIFEST_VERSION


def test_get_job_cache_shares_instances_per_directory(tmp_path):
    one = get_job_cache(str(tmp_path / "store"))
    two = get_job_cache(str(tmp_path / "store"))
    other = get_job_cache(str(tmp_path / "elsewhere"))
    assert one is two and one is not other
    assert resolve_job_cache(one) is one
    assert resolve_job_cache(None) is None
    assert resolve_job_cache(False) is None


def test_concurrent_writers_one_store_no_corruption(tmp_path):
    """Concurrent scatter shards storing and reading the same keys must never
    corrupt the store: every lookup sees either a miss or a fully valid entry."""
    cache = JobCache(str(tmp_path / "store"))
    sources = []
    for index in range(8):
        outdir = tmp_path / f"job{index}"
        outdir.mkdir()
        (outdir / "shard.txt").write_text(f"shard body {index % 4}")
        sources.append(str(outdir))

    def worker(index: int) -> str:
        key = f"key{index % 4}"
        cache.store_outdir(key, sources[index], stdout_name="shard.txt")
        entry = cache.lookup(key)
        assert entry is not None
        restored = tmp_path / f"restored-{index}-{threading.get_ident()}"
        cache.restore(entry, str(restored))
        return (restored / "shard.txt").read_text()

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(8)))
    for index, body in enumerate(results):
        assert body == f"shard body {index % 4}"
    # Manifests stayed valid JSON throughout.
    for name in os.listdir(cache.entries_dir):
        with open(os.path.join(cache.entries_dir, name)) as handle:
            json.load(handle)


# ---------------------------------------------------- RuntimeContext tri-state


def test_runtime_context_job_cache_tristate(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_JOBCACHE_DIR", raising=False)
    assert RuntimeContext().job_cache_dir() is None
    assert RuntimeContext(cache_dir=str(tmp_path)).job_cache_dir() == str(tmp_path)
    assert RuntimeContext(cache_dir=str(tmp_path), job_cache=False).job_cache_dir() is None
    assert RuntimeContext(job_cache=True).job_cache_dir() is not None
    monkeypatch.setenv("REPRO_JOBCACHE_DIR", str(tmp_path / "env-store"))
    assert RuntimeContext().job_cache_dir() == str(tmp_path / "env-store")
    assert RuntimeContext(job_cache=False).job_cache_dir() is None


def test_workflow_scatter_shards_share_one_store(tmp_path):
    """End-to-end: a scattered workflow's concurrent shards populate one store
    cold and all hit warm (reference runner, parallel pool)."""
    from repro import api

    doc = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "requirements": [{"class": "ScatterFeatureRequirement"}],
        "inputs": {"messages": "string[]"},
        "outputs": {"outs": {"type": "File[]", "outputSource": "shout/out"}},
        "steps": {
            "shout": {
                "run": {
                    "class": "CommandLineTool", "baseCommand": "echo",
                    "inputs": {"message": {"type": "string",
                                           "inputBinding": {"position": 1}}},
                    "outputs": {"out": "stdout"}, "stdout": "shout.txt",
                },
                "scatter": "message",
                "in": {"message": "messages"},
                "out": ["out"],
            },
        },
    }
    store = tmp_path / "store"
    messages = [f"msg {i}" for i in range(6)]
    order = {"messages": messages}

    def run():
        return api.run(load_document(dict(doc)), dict(order), engine="reference",
                       parallel=True, max_workers=4, cache_dir=str(store),
                       runtime_context=RuntimeContext(basedir=str(tmp_path / "wd")))

    cold = run()
    assert cold.cache_stats == {"hits": 0, "misses": len(messages)}
    warm = run()
    assert warm.cache_stats == {"hits": len(messages), "misses": 0}
    for cold_file, warm_file in zip(cold.outputs["outs"], warm.outputs["outs"]):
        with open(cold_file["path"], "rb") as a, open(warm_file["path"], "rb") as b:
            assert a.read() == b.read()


# ---------------------------------------------------- fingerprint memoization

def test_file_fingerprint_memoizes_and_invalidates(tmp_path, monkeypatch):
    """N consumers of one input hash it once; size or mtime changes re-hash.

    The memo key is (st_dev, st_ino, st_size, st_mtime_ns): repeated
    fingerprints of an unchanged file never re-read its content, while any
    visible change — different size, same size but newer mtime — drops
    straight through to a fresh content hash.
    """
    import repro.cwl.jobcache as jobcache

    hashed = []
    real_hash_file = jobcache.hash_file

    def counting_hash_file(path):
        hashed.append(path)
        return real_hash_file(path)

    monkeypatch.setattr(jobcache, "hash_file", counting_hash_file)

    data = tmp_path / "input.txt"
    data.write_text("one")
    first = file_fingerprint(str(data))
    for _ in range(5):  # five more consumers of the same unchanged file
        assert file_fingerprint(str(data)) == first
    assert len(hashed) == 1, "unchanged file was re-hashed"

    data.write_text("two!")  # different size -> different memo key
    second = file_fingerprint(str(data))
    assert second != first and len(hashed) == 2

    data.write_text("tri!")  # same size as "two!"; bump mtime explicitly
    stat = os.stat(data)
    os.utime(data, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    third = file_fingerprint(str(data))
    assert third != second and len(hashed) == 3

    # Symlinks are followed to the inode: no duplicate hashing via an alias.
    alias = tmp_path / "alias.txt"
    alias.symlink_to(data)
    assert file_fingerprint(str(alias)) == third
    assert len(hashed) == 3


def test_file_fingerprint_memo_is_bounded(tmp_path, monkeypatch):
    """cap+N distinct files leave <= cap entries, oldest evicted first."""
    import repro.cwl.jobcache as jobcache

    cap, extra = 8, 5
    monkeypatch.setattr(jobcache, "_FILE_HASH_MEMO", {})
    monkeypatch.setattr(jobcache, "_FILE_HASH_MEMO_MAX", cap)
    paths = []
    for index in range(cap + extra):
        path = tmp_path / f"input_{index}.txt"
        path.write_text(f"content {index}")
        paths.append(str(path))
        file_fingerprint(str(path))
        assert len(jobcache._FILE_HASH_MEMO) <= cap
    # Keys are (st_dev, st_ino, st_size, st_mtime_ns); the survivors are the
    # newest ``cap`` files, in the order they were hashed.
    memoized = [key[:2] for key in jobcache._FILE_HASH_MEMO]
    assert memoized == [(os.stat(path).st_dev, os.stat(path).st_ino)
                        for path in paths[extra:]]
    # An evicted file still fingerprints correctly (it is simply re-hashed).
    assert file_fingerprint(paths[0]) == jobcache.hash_file(paths[0]).split("$", 1)[1]


# ------------------------------------------------- fingerprint soundness
# Counts of hash_file calls, never clocks: the memo is sound when the bytes
# are read again exactly when the file behind the path may have changed.

@pytest.fixture
def hashed(monkeypatch):
    """A fresh memo plus the list of paths whose bytes were actually read."""
    import repro.cwl.jobcache as jobcache

    reads = []
    real_hash_file = jobcache.hash_file

    def counting_hash_file(path):
        reads.append(os.fspath(path))
        return real_hash_file(path)

    monkeypatch.setattr(jobcache, "_FILE_HASH_MEMO", {})
    monkeypatch.setattr(jobcache, "hash_file", counting_hash_file)
    return reads


def test_hardlink_of_a_hashed_file_is_a_memo_hit(tmp_path, hashed):
    """One inode, however many names: the CAS body, the link a hit restores
    and the job store's import of it are read once."""
    body = tmp_path / "cas-body"
    body.write_text("the same bytes")
    first = file_fingerprint(str(body))
    (tmp_path / "job").mkdir()
    restored = tmp_path / "job" / "out.txt"
    os.link(body, restored)
    imported = tmp_path / "imported-out.txt"
    os.link(restored, imported)
    assert file_fingerprint(str(restored)) == first
    assert file_fingerprint(str(imported)) == first
    assert hashed == [str(body)]
    # A *copy* is another inode: equal digest, but its bytes are read.
    copy = tmp_path / "copy.txt"
    shutil.copy2(body, copy)
    assert file_fingerprint(str(copy)) == first
    assert hashed == [str(body), str(copy)]


def test_file_rewritten_in_place_is_rehashed(tmp_path, hashed):
    data = tmp_path / "input.txt"
    data.write_text("aaaa")
    before = file_fingerprint(str(data))
    inode = os.stat(data).st_ino

    with open(data, "r+") as handle:   # same inode, new size
        handle.write("bbbbbb")
    assert os.stat(data).st_ino == inode
    grown = file_fingerprint(str(data))
    assert grown != before and len(hashed) == 2

    stat = os.stat(data)
    with open(data, "r+") as handle:   # same inode, same size, later mtime
        handle.write("cccccc")
    os.utime(data, ns=(stat.st_atime_ns, stat.st_mtime_ns + 5_000_000))
    assert os.stat(data).st_ino == inode
    assert file_fingerprint(str(data)) not in (before, grown)
    assert len(hashed) == 3


def test_file_replaced_by_rename_with_preserved_mtime_is_rehashed(tmp_path, hashed):
    """``cp -p`` / ``rsync -t`` / ``tar``: a new file of equal size carrying
    the old mtime is renamed over the path.  A memo keyed on (path, size,
    mtime) answered with the old digest here — a wrong job key."""
    data = tmp_path / "input.txt"
    data.write_text("old bytes")
    old = file_fingerprint(str(data))
    stat = os.stat(data)

    replacement = tmp_path / ".input.txt.new"
    replacement.write_text("new bytes")
    os.utime(replacement, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(replacement, data)

    after = os.stat(data)
    assert (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert after.st_ino != stat.st_ino
    new = file_fingerprint(str(data))
    assert new != old
    assert new == hash_file(str(data)).split("$", 1)[1]
    assert len(hashed) == 2


def test_file_without_an_inode_number_is_never_memoized(tmp_path, hashed, monkeypatch):
    """Some FUSE and network file systems report ``st_ino == 0`` for every
    file; two such files must never share a memo entry."""
    import repro.cwl.jobcache as jobcache

    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    first.write_text("11111")
    second.write_text("22222")
    stamp = os.stat(first)
    os.utime(second, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    real_stat = os.stat

    def inodeless_stat(path, *args, **kwargs):
        result = real_stat(path, *args, **kwargs)
        return os.stat_result((result.st_mode, 0) + tuple(result)[2:10])

    with monkeypatch.context() as patched:
        patched.setattr(jobcache.os, "stat", inodeless_stat)
        assert file_fingerprint(str(first)) != file_fingerprint(str(second))
        assert file_fingerprint(str(first)) == file_fingerprint(str(first))
    assert len(hashed) == 4, "an inode-less file was served from the memo"
    assert jobcache._FILE_HASH_MEMO == {}


def test_a_staged_copy_is_stamped_as_a_new_file(tmp_path):
    """``stage_file``'s copies carry content and mode, not the source's mtime:
    a restored copy that kept its CAS body's mtime could, on a reused inode
    number, match the memo entry of the equal-sized file that had the inode
    before (two outputs written in one timestamp tick)."""
    source = tmp_path / "body"
    source.write_text("#!/bin/sh\n")
    source.chmod(0o755)
    long_ago = 1_000_000_000 * 10**9
    os.utime(source, ns=(long_ago, long_ago))
    copy = tmp_path / "restored" / "tool.sh"
    assert stage_file(str(source), str(copy), prefer_copy=True) == "copy"
    assert copy.read_text() == "#!/bin/sh\n"
    assert os.stat(copy).st_mode & 0o777 == 0o755
    assert os.stat(copy).st_mtime_ns != long_ago
    assert file_fingerprint(str(copy)) == file_fingerprint(str(source))
