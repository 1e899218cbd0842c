"""Content-addressed job cache + zero-copy staging.

Every CommandLineTool invocation is assigned a deterministic **job key**
derived from

* the canonicalized tool document (which covers ``baseCommand``,
  ``arguments``, every binding, the output spec and the requirements),
* the canonicalized job order, with every input ``File`` / ``Directory``
  replaced by its *content* fingerprint (path-independent),
* the runtime context's extra environment variables, and
* the granted ``$(runtime.cores)`` / ``$(runtime.ram)`` resources.

A persistent on-disk store maps that key to the files the job produced.  On a
**hit** the files are restored into a fresh output directory with
hardlink-with-copy-fallback staging (:func:`stage_file` — zero-copy on the
same filesystem) and the subprocess never runs; output *collection* re-runs
against the restored files, so cached results flow through exactly the same
code path as cold ones.  On a **miss** the job executes normally and its
output directory is ingested into the store — again by hardlinking.

The store is shared by all four engines (``reference``, ``toil``, ``parsl``,
``parsl-workflow``): the key is computed from engine-independent data, so a
workflow warmed by one engine is warm for the others.

Store layout (everything under one ``cache_dir``)::

    cache_dir/
      entries/<job key>.json     one manifest per cached invocation
      cas/<sha1>                 content-addressed file bodies (hardlinked)

Manifests are written atomically (tmp + ``os.replace``) and the CAS is
add-only, so concurrent scatter shards — or concurrent sessions — can share
one store without corrupting it: the worst case is two writers racing to
create identical content, and whoever loses simply finds the file already
present.  The manifest additionally records the job's *resolved command line*
(canonicalized: scratch-directory and input paths replaced by stable
placeholders); the command line is fully determined by the key's
components, which is what lets a warm run skip rebuilding it.

Known caveats (shared with cwltool's ``--cachedir``): restored files are
hardlinks, so a consumer that *mutates* an output in place would corrupt the
store — CWL tools treat outputs as immutable; and a tool that is
non-deterministic or depends on un-fingerprinted ambient state (time, network)
will happily replay its first recorded run.

What a hit costs: one key (one ``stat`` per input file), one manifest read,
one ``stat`` per CAS body and one ``link`` per restored file.  Every engine's
probe is :meth:`~repro.cwl.job.CommandLineJob.probe`: one pass over the job
order stats each input file once (:func:`stat_inputs`), and the decision to
leave the thread that dispatches workflow nodes before keying
(``INLINE_HASH_BYTES``) and the key's content identities
(:func:`input_identities`) both use that stat; then
:meth:`~JobCache.manifest`, :meth:`~JobCache.unhashed_body_bytes` and
:meth:`~JobCache.checked`, which share one ``stat`` per CAS body, so the
probe can leave that thread again before it reads a body.  A hit is restored
by :meth:`~repro.cwl.job.CommandLineJob.cached_result` and a miss published
with :meth:`JobCache.store_outdir`, so one key gets one manifest whichever
engine wrote it.  No scratch directory, command line, job
description rewrite or process is made for the code segment a hit skips (see
README "What a hit costs").

What a miss adds: one spawn, which inherits the process's environment or
gets the run's mapping of it, read from ``os.environ`` once per run
(:class:`~repro.utils.environment.RunEnvironment`), and one publish:
one ``stat`` per output file (a ``scandir`` pass, no second look), the
identities the probe made for the recorded command line (no input is
fingerprinted twice), and the manifest written with one ``write``.

Threat model of the content fingerprint
---------------------------------------
A wrong fingerprint is a wrong job key, and a wrong key can replay another
job's outputs, so this is what :func:`file_fingerprint` does and does not
take on trust.  A file's bytes are read when it is first seen and the digest
is remembered under ``(st_dev, st_ino, st_size, st_mtime_ns)`` of the inode
the path resolves to (one ``os.stat``, symlinks followed); the path itself
is no part of the identity.

*Detected, i.e. re-hashed:* a file rewritten in place when its size or its
mtime changes; a file **replaced by rename** (``os.replace``, ``mv``,
``cp -p`` / ``rsync -t`` / ``tar`` into place) even when the replacement has
the same size and a preserved mtime — it is a different inode (a memo keyed
on the path returned the old digest here); the same content under another
name or behind a symlink, which is the *same* identity: a CAS body, the
hardlink a hit restores from it and the Toil job store's import of that link
are read once.  A file system that reports no inode number (``st_ino == 0``)
is never memoized.  Independently of the memo, :meth:`JobCache.checked`
compares every CAS body's fingerprint with the name it is stored under and
quarantines the entry on a mismatch, so damage to the store that the memo
can see is never replayed.

*Trusted, i.e. not detected:* the same inode rewritten in place with equal
size inside one mtime tick of the file system (ext4 stamps from a clock that
advances every few milliseconds), or with its mtime put back (``os.utime``,
``touch -r``); and an inode number freed by a deletion and given to a new
file of equal size and equal mtime (a copy from outside that preserves
times — :func:`stage_file`'s own copies are stamped as new files for this
reason — or a file made within the same tick) while the old digest is still
in this process's memo.
The inode-changing time ``st_ctime_ns`` would close both, but a hardlink
changes it, which would make every restored file a stranger to the body it
is a link of.  The memo is per process and bounded
(``_FILE_HASH_MEMO_MAX``, oldest first); eviction costs a re-hash, never a
wrong answer.  Job keys and tool fingerprints come
from :func:`~repro.utils.hashing.hash_obj`, which is a function of values
only (no dependence on which parts of a key happen to be one object).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from stat import S_ISDIR, S_ISREG
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.hashing import hash_file, hash_obj
from repro.utils.logging_config import get_logger

logger = get_logger("cwl.jobcache")

#: Environment variable that both names the default store location and —
#: because setting it counts as opting in — enables the cache for engines
#: left at their ``job_cache=None`` default.
CACHE_DIR_ENV = "REPRO_JOBCACHE_DIR"

#: Version 2: every manifest is a job's whole output directory under its
#: own stream names.  A version-1 entry may record a ``CWLApp`` caller's
#: redirection as the tool's stream, so it is a miss.
MANIFEST_VERSION = 2


def default_cache_dir() -> str:
    """The store location used when caching is enabled without a ``cache_dir``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    try:
        tag = f"uid{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        tag = "shared"
    return os.path.join(tempfile.gettempdir(), f"repro-jobcache-{tag}")


# --------------------------------------------------------------------- staging


def stage_file(source: str, destination: str, overwrite: bool = True,
               prefer_copy: bool = False) -> str:
    """Stage ``source`` at ``destination``: hardlink, falling back to a copy.

    The zero-copy primitive shared by the job cache, the Toil-like job store
    and final output collection.  Returns ``"link"`` or ``"copy"`` (or
    ``"kept"`` when the destination existed and ``overwrite`` is false).
    Overwrites are atomic: the replacement is prepared under a temporary name
    in the destination directory and ``os.replace``d into place, so readers
    never observe a half-staged file.  A copy has the source's content and
    mode and its own timestamps.

    ``prefer_copy=True`` skips the hardlink attempt — used whenever either
    side of the transfer lives in a *shared* directory whose files may later
    be rewritten in place (a hardlink would alias that rewrite into the other
    side).
    """
    source = os.fspath(source)
    destination = os.fspath(destination)
    if not prefer_copy:
        # The common case — a fresh name in an existing directory — is this
        # one system call; everything below it is a fallback.
        try:
            os.link(source, destination)
            return "link"
        except FileExistsError:
            if not overwrite:
                return "kept"
            if os.path.samefile(source, destination):
                return "link"  # a rename onto it would leave the temporary name
        except OSError:
            pass  # missing parent, cross-device, FS without hardlinks: below
    elif not overwrite and os.path.exists(destination):
        return "kept"

    parent = os.path.dirname(os.path.abspath(destination))
    tmp = os.path.join(
        parent, f".stage-{os.getpid()}-{threading.get_ident()}-{os.path.basename(destination)}"
    )
    try:
        try:
            how = _link_or_copy(source, tmp, prefer_copy)
        except FileNotFoundError:
            # The parent is made only once it has been found missing (a
            # missing *source* raises again, as it always did).
            os.makedirs(parent, exist_ok=True)
            how = _link_or_copy(source, tmp, prefer_copy)
        os.replace(tmp, destination)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return how


def _link_or_copy(source: str, target: str, prefer_copy: bool) -> str:
    if not prefer_copy:
        try:
            os.link(source, target)
            return "link"
        except FileNotFoundError:
            raise
        except OSError:
            pass
    # Content and mode, not times: a copy is a new file and is stamped as
    # one.  A copy carrying its source's mtime is what it would take for a
    # reused inode number to impersonate the file :func:`file_fingerprint`
    # remembers under it (see "Threat model" in the module docstring).
    shutil.copy(source, target)
    return "copy"


# ---------------------------------------------------------------- fingerprints

#: Content-hash memo keyed by ``(st_dev, st_ino, st_size, st_mtime_ns)``: a
#: file is read once per content change however many paths name it, so a CAS
#: body, the hardlink a hit restores and the Toil job store's import of that
#: link are one entry (see "Threat model" in the module docstring).
#: Process-global, so bounded: past the cap the oldest entries are evicted
#: (a re-hash, never a wrong answer).
_FILE_HASH_MEMO: Dict[Tuple[int, int, int, int], str] = {}
_FILE_HASH_MEMO_MAX = 65536
_FILE_HASH_LOCK = threading.Lock()


def file_fingerprint(path: str, stat: Optional[os.stat_result] = None) -> str:
    """The sha1 of the file's *content*, memoized on the inode it names.

    One ``os.stat`` (symlinks followed) per call, or none when the caller
    passes the ``stat`` it made of ``path``; the bytes are read only
    when no file with this device, inode, size and mtime has been hashed
    before.  A file system that reports no inode number (``st_ino == 0``)
    is never memoized.
    """
    if stat is None:
        stat = os.stat(path)
    if not stat.st_ino:
        return hash_file(path).split("$", 1)[1]
    memo_key = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    with _FILE_HASH_LOCK:
        cached = _FILE_HASH_MEMO.get(memo_key)
    if cached is not None:
        return cached
    digest = hash_file(path).split("$", 1)[1]
    with _FILE_HASH_LOCK:
        _FILE_HASH_MEMO[memo_key] = digest
        while len(_FILE_HASH_MEMO) > _FILE_HASH_MEMO_MAX:
            del _FILE_HASH_MEMO[next(iter(_FILE_HASH_MEMO))]
    return digest


#: Bytes a job-cache probe may hash on the thread that dispatches workflow
#: nodes, for its inputs and again for a hit's bodies (see
#: :meth:`~repro.cwl.job.CommandLineJob.probe`).  sha1 reads
#: about 0.9 GB/s on one core, so this is about 0.3 ms of hashing, the order
#: of one hand-off to the scheduler's pool; hashing releases the GIL, so past
#: it a pool thread hashes in parallel with the rest of the run.
INLINE_HASH_BYTES = 256 * 1024


def stat_inputs(job_order: Any,
                known: Optional[Dict[str, os.stat_result]] = None) -> Dict[str, os.stat_result]:
    """One ``os.stat`` (symlinks followed) per ``File`` path in ``job_order``
    (a job order, or part of one), and per directory path and file under it
    for each ``Directory`` that is one, by path; a path that cannot be
    stat'ed is left out.  What keying reads (:func:`unhashed_bytes`) and what
    it is keyed on (:func:`input_identities`) come from these stats.
    ``known`` are stats of paths in ``job_order`` made a moment before (when
    their File values were built), which are not made again."""
    stats: Dict[str, os.stat_result] = dict(known) if known else {}

    def add(path: str) -> None:
        if path not in stats:
            try:
                stats[path] = os.stat(path)
            except OSError:
                pass

    def visit(value: Any) -> None:
        if isinstance(value, dict):
            cls = value.get("class")
            path = value.get("path")
            if cls == "File":
                if path:
                    add(path)
            elif cls == "Directory":
                if not path or path in stats:
                    return
                try:
                    stat = os.stat(path)
                except OSError:
                    return
                if S_ISDIR(stat.st_mode):
                    stats[path] = stat
                    for root, _dirs, files in os.walk(path):
                        for name in files:
                            add(os.path.join(root, name))
            else:
                for item in value.values():
                    visit(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    visit(job_order)
    return stats


def _unhashed_size(stat: os.stat_result) -> int:
    """The bytes :func:`file_fingerprint` would read for a file of ``stat``:
    none once its content is memoized."""
    memo_key = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    if stat.st_ino and memo_key in _FILE_HASH_MEMO:
        return 0
    return stat.st_size


def unhashed_bytes(stats: Dict[str, os.stat_result]) -> int:
    """How many bytes keying a job order of :func:`stat_inputs` ``stats``
    would read: the sizes of its files whose content :func:`file_fingerprint`
    has not memoized.  Nothing is read or stat'ed."""
    return sum(_unhashed_size(stat) for stat in stats.values() if not S_ISDIR(stat.st_mode))


@functools.lru_cache(maxsize=256)
def device_of(path: str) -> Optional[int]:
    """The ``st_dev`` of ``path``, or of its nearest existing ancestor (the
    device ``os.makedirs`` would make it on); ``None`` when unreadable.
    Remembered per path: it changes only when something is mounted there."""
    path = os.path.abspath(path)
    while True:
        try:
            return os.stat(path).st_dev
        except FileNotFoundError:
            parent = os.path.dirname(path)
            if parent == path:
                return None
            path = parent
        except OSError:
            return None


def directory_fingerprint(path: str,
                          stats: Optional[Dict[str, os.stat_result]] = None) -> str:
    """A stable fingerprint of a directory tree (names + file contents);
    a file's ``stats`` entry (:func:`stat_inputs`) spares its ``stat``."""
    stats = stats or {}
    entries: List[Tuple[str, str]] = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        rel_root = os.path.relpath(root, path)
        for name in sorted(files):
            full = os.path.join(root, name)
            rel = os.path.normpath(os.path.join(rel_root, name))
            try:
                entries.append((rel, file_fingerprint(full, stat=stats.get(full))))
            except OSError:
                entries.append((rel, "unreadable"))
        if not files and not dirs:
            entries.append((os.path.normpath(rel_root), "emptydir"))
    return hash_obj(tuple(entries), algorithm="sha1")


def tool_fingerprint(tool: Any) -> str:
    """Canonical fingerprint of a tool document, pinned on the tool instance.

    Hashes the raw normalised document (dict order independent via
    :func:`~repro.utils.hashing.hash_obj`), which covers the command
    template, bindings, requirements *and* the output spec.
    """
    pinned = getattr(tool, "_jobcache_doc_fp", None)
    if pinned is not None:
        return pinned
    raw = getattr(tool, "raw", None) or {}
    fingerprint = hash_obj(raw, algorithm="sha1")
    try:
        tool._jobcache_doc_fp = fingerprint
    except Exception:  # pragma: no cover - slotted/frozen tool stand-ins
        pass
    return fingerprint


def input_identities(job_order: Any,
                     stats: Optional[Dict[str, os.stat_result]] = None) -> Dict[str, str]:
    """The content identity of each ``File`` and ``Directory`` path in
    ``job_order`` that exists, by path: its :func:`file_fingerprint` or
    :func:`directory_fingerprint`, from the :func:`stat_inputs` ``stats``
    (made here when not given), so no input is stat'ed again.  What a job is
    keyed on (:func:`job_key`) and its recorded command line names its
    inputs by (:func:`canonical_command`)."""
    if stats is None:
        stats = stat_inputs(job_order)
    identities: Dict[str, str] = {}

    def visit(value: Any) -> None:
        if isinstance(value, dict):
            cls = value.get("class")
            if cls in ("File", "Directory"):
                path = value.get("path")
                stat = stats.get(path) if path else None
                if stat is None or path in identities:
                    return
                if cls == "File":
                    identities[path] = file_fingerprint(path, stat=stat)
                elif S_ISDIR(stat.st_mode):
                    identities[path] = directory_fingerprint(path, stats)
                return
            for item in value.values():
                visit(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    visit(job_order)
    return identities


def _canonical_value(value: Any, identities: Dict[str, str]) -> Any:
    """Replace File/Directory values with content identities, recursively."""
    if isinstance(value, dict):
        cls = value.get("class")
        if cls == "File":
            path = value.get("path")
            identity = identities.get(path) if path else None
            if identity is None:
                if value.get("checksum"):
                    identity = str(value["checksum"]).split("$", 1)[-1]
                elif value.get("contents") is not None:
                    identity = hash_obj(value["contents"], algorithm="sha1")
                else:
                    identity = f"missing:{path!r}"
            return ("File", value.get("basename") or os.path.basename(path or ""), identity)
        if cls == "Directory":
            path = value.get("path")
            identity = (identities.get(path) if path else None) or f"missing:{path!r}"
            return ("Directory", value.get("basename") or os.path.basename(path or ""), identity)
        return tuple(sorted((k, _canonical_value(v, identities)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item, identities) for item in value)
    return value


def job_key(tool: Any, job_order: Dict[str, Any], *, cores: int, ram_mb: int,
            extra_env: Optional[Dict[str, str]] = None,
            identities: Optional[Dict[str, str]] = None) -> str:
    """The deterministic cache key of one CommandLineTool invocation.

    ``None``-valued job-order entries are dropped so that an omitted optional
    input and an explicit ``null`` fingerprint identically (they produce the
    same command line).  ``identities`` are the job order's
    :func:`input_identities`, made here when not given.
    """
    if identities is None:
        identities = input_identities(job_order)
    canonical_order = tuple(sorted(
        (key, _canonical_value(value, identities))
        for key, value in job_order.items() if value is not None
    ))
    payload = (
        tool_fingerprint(tool),
        canonical_order,
        tuple(sorted((extra_env or {}).items())),
        int(cores),
        int(ram_mb),
    )
    return hash_obj(payload, algorithm="sha1")


def canonical_command(argv: List[str], stdin: Optional[str], stdout: Optional[str],
                      stderr: Optional[str], environment: Dict[str, str],
                      outdir: str, tmpdir: Optional[str],
                      job_order: Dict[str, Any], identities: Dict[str, str]) -> Dict[str, Any]:
    """The resolved command line with run-specific paths canonicalized.

    Scratch directories become ``$OUTDIR`` / ``$TMPDIR`` and each input
    File/Directory path becomes ``$INPUT[<content-hash>]``, so the recorded
    command is stable across re-runs that only differ in where they staged
    their data.  Recorded in the manifest.  The content
    hashes are ``identities``, the :func:`input_identities` the job was
    keyed on.
    """
    substitutions: List[Tuple[str, str]] = []

    def collect(value: Any) -> None:
        if isinstance(value, dict):
            cls = value.get("class")
            path = value.get("path")
            if cls in ("File", "Directory") and path:
                identity = _canonical_value(value, identities)[-1]
                substitutions.append((str(path), f"$INPUT[{identity}]"))
                return
            for item in value.values():
                collect(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                collect(item)

    collect(job_order)
    if outdir:
        substitutions.append((outdir, "$OUTDIR"))
    if tmpdir:
        substitutions.append((tmpdir, "$TMPDIR"))
    # Longest-first so nested paths resolve deterministically.
    substitutions.sort(key=lambda pair: len(pair[0]), reverse=True)

    def canon(token: Optional[str]) -> Optional[str]:
        if token is None:
            return None
        for concrete, placeholder in substitutions:
            token = token.replace(concrete, placeholder)
        return token

    return {
        "argv": [canon(token) for token in argv],
        "stdin": canon(stdin),
        "stdout": canon(stdout),
        "stderr": canon(stderr),
        "environment": {name: canon(value) for name, value in sorted(environment.items())},
    }


# ----------------------------------------------------------------------- store


@dataclass
class CacheEntry:
    """One validated manifest loaded from the store."""

    key: str
    files: Dict[str, Dict[str, Any]]    # relpath -> {"cas": id, "size": bytes}
    dirs: List[str]                     # empty directories to recreate
    streams: Dict[str, Optional[str]]   # "stdout"/"stderr" -> relpath (or None)
    exit_code: int = 0
    command: Dict[str, Any] = field(default_factory=dict)
    #: Each body's ``os.stat`` by CAS id (``None``: missing), made once for
    #: :meth:`JobCache.unhashed_body_bytes` and :meth:`JobCache.checked`.
    stats: Optional[Dict[str, Optional[os.stat_result]]] = field(
        default=None, repr=False, compare=False)

    def stream_name(self, which: str) -> Optional[str]:
        return self.streams.get(which)


class JobCache:
    """Persistent content-addressed store of CommandLineTool results."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = os.path.abspath(cache_dir)
        self.entries_dir = os.path.join(self.cache_dir, "entries")
        self.cas_dir = os.path.join(self.cache_dir, "cas")
        os.makedirs(self.entries_dir, exist_ok=True)
        os.makedirs(self.cas_dir, exist_ok=True)
        #: The store's ``st_dev``: a restore into a directory on another
        #: device copies every byte instead of hardlinking.
        self.device = os.stat(self.cas_dir).st_dev

    # ------------------------------------------------------------------ lookup

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.entries_dir, f"{key}.json")

    def _cas_path(self, cas_id: str) -> str:
        return os.path.join(self.cas_dir, cas_id)

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """Load and validate the manifest for ``key``: the hit, or ``None``.

        :meth:`manifest`, then :meth:`checked`.  A manifest whose CAS bodies
        have gone missing (a partially deleted store) is treated as a miss,
        so the entry is transparently re-created by the run that follows.
        Counts nothing: an execution counts its hits and misses from its
        own job events (:attr:`~repro.api.result.ExecutionResult.cache_stats`).
        """
        return self.checked(self.manifest(key))

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a damaged store artifact aside (``*.corrupt``) — never raise.

        Quarantining (rather than deleting) keeps the evidence for post-mortem
        while guaranteeing the next lookup is a clean miss and the re-executed
        job re-publishes a fresh body under the same name.
        """
        target = path + ".corrupt"
        try:
            os.replace(path, target)
            logger.warning("quarantined corrupt job-cache artifact %s (%s)",
                           path, reason)
        except OSError:
            logger.warning("could not quarantine job-cache artifact %s (%s)",
                           path, reason, exc_info=True)

    def manifest(self, key: str) -> Optional[CacheEntry]:
        """The manifest for ``key``, parsed; its bodies are not checked."""
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            return None  # no entry — the ordinary miss
        except ValueError:
            # Unparseable manifest (torn write, disk damage): quarantine it
            # and fall through to a miss instead of raising mid-run.
            self._quarantine(path, "unparseable manifest")
            return None
        if data.get("version") != MANIFEST_VERSION:
            return None
        return CacheEntry(
            key=key,
            files=dict(data.get("files") or {}),
            dirs=list(data.get("dirs") or []),
            streams=dict(data.get("streams") or {}),
            exit_code=int(data.get("exit_code", 0)),
            command=dict(data.get("command") or {}),
        )

    def _body_stats(self, entry: CacheEntry) -> Dict[str, Optional[os.stat_result]]:
        """``entry``'s :attr:`~CacheEntry.stats`, made on first use: one
        ``os.stat`` per body."""
        if entry.stats is None:
            stats: Dict[str, Optional[os.stat_result]] = {}
            for spec in entry.files.values():
                cas = spec.get("cas", "")
                if cas not in stats:
                    try:
                        stats[cas] = os.stat(self._cas_path(cas))
                    except OSError:
                        stats[cas] = None
            entry.stats = stats
        return entry.stats

    def unhashed_body_bytes(self, entry: CacheEntry) -> int:
        """How many bytes :meth:`checked` would read for ``entry``: the sizes
        of its bodies :func:`file_fingerprint` has not memoized.  One
        ``os.stat`` per body, which :meth:`checked` uses too; nothing is read."""
        return sum(_unhashed_size(stat) for stat in self._body_stats(entry).values()
                   if stat is not None)

    def checked(self, entry: Optional[CacheEntry]) -> Optional[CacheEntry]:
        """``entry`` if every body is intact; else quarantine it, ``None``."""
        if entry is None:
            return None
        path = self._entry_path(entry.key)
        stats = self._body_stats(entry)
        for spec in entry.files.values():
            cas = spec.get("cas", "")
            body = self._cas_path(cas)
            stat = stats[cas]
            if stat is None:
                self._quarantine(path, f"missing CAS body {os.path.basename(body)}")
                return None
            # A missing, truncated or bit-flipped body (e.g. a shared file
            # later rewritten in place) quarantines the entry rather than
            # replaying damaged data.  The content fingerprint reads nothing
            # for a body this process has validated before (it is memoized on
            # the inode), so the recorded size is looked at only to word the
            # report of a body that failed.
            try:
                if file_fingerprint(body, stat=stat) != cas:
                    if stat.st_size != int(spec.get("size", -1)):
                        self._quarantine(body, f"size mismatch for entry {entry.key}")
                        self._quarantine(path, "stale CAS body")
                    else:
                        self._quarantine(body, f"content mismatch for entry {entry.key}")
                        self._quarantine(path, "corrupt CAS body")
                    return None
            except OSError:
                self._quarantine(path, f"missing CAS body {os.path.basename(body)}")
                return None
        return entry

    # ----------------------------------------------------------------- restore

    def restore(self, entry: CacheEntry, outdir: str) -> None:
        """Stage every cached file of ``entry`` into ``outdir`` (a job's own
        output directory): one ``link`` per file into an ``outdir`` that
        exists; a missing ``outdir`` or sub-directory is made by the first
        file that needs it (:func:`stage_file`).
        """
        for rel in entry.dirs:
            os.makedirs(os.path.join(outdir, rel), exist_ok=True)
        for rel, spec in entry.files.items():
            stage_file(self._cas_path(spec["cas"]), os.path.join(outdir, rel))

    def cas_body(self, entry: CacheEntry, rel: str) -> Optional[str]:
        """Absolute CAS path of the body cached for ``rel``, if any."""
        spec = entry.files.get(os.path.normpath(rel)) if rel else None
        return self._cas_path(spec["cas"]) if spec else None

    # ------------------------------------------------------------------- store

    def ingest_file(self, path: str, prefer_copy: bool = False,
                    stat: Optional[os.stat_result] = None) -> Dict[str, Any]:
        """Add one file body to the CAS; returns its ``{"cas", "size"}`` spec.

        Hardlinked (zero-copy) by default; ``prefer_copy=True`` for files in
        shared directories that may later be rewritten in place.  ``stat``
        is the caller's ``os.stat`` of ``path``; without it, one is made.
        """
        if stat is None:
            stat = os.stat(path)
        cas_id = file_fingerprint(path, stat=stat)
        stage_file(path, self._cas_path(cas_id), overwrite=False, prefer_copy=prefer_copy)
        return {"cas": cas_id, "size": stat.st_size}

    def store_outdir(self, key: str, outdir: str, *,
                     stdout_name: Optional[str] = None,
                     stderr_name: Optional[str] = None,
                     exit_code: int = 0,
                     command: Optional[Dict[str, Any]] = None,
                     stats: Optional[Dict[str, os.stat_result]] = None) -> CacheEntry:
        """Snapshot a job's entire (private) output directory under ``key``:
        one ``scandir`` pass, one ``stat`` per file (:meth:`_ingest_tree`),
        none for a file whose ``os.stat`` is in ``stats`` by its path (what
        output collection made of the job's outputs)."""
        files: Dict[str, Dict[str, Any]] = {}
        empty_dirs: List[str] = []
        self._ingest_tree(outdir, "", files, empty_dirs, stats or {})
        return self._write_entry(key, files, empty_dirs,
                                 stdout_name=stdout_name, stderr_name=stderr_name,
                                 exit_code=exit_code, command=command)

    def _ingest_tree(self, directory: str, prefix: str,
                     files: Dict[str, Dict[str, Any]], empty_dirs: List[str],
                     stats: Dict[str, os.stat_result]) -> None:
        """Ingest every regular file under ``directory`` into ``files``, by
        its path relative to the output directory (``prefix`` + name), as
        ``os.walk`` sees the tree: a symlinked directory is not entered, an
        entry that is not a regular file (a FIFO, a socket, a dangling link)
        is skipped, and a directory with no entries at all is recorded in
        ``empty_dirs``.  One ``stat`` per file (symlinks followed), which
        its fingerprint and size both use: the one in ``stats`` by the
        file's path, else ``entry.stat()``."""
        try:
            with os.scandir(directory) as scan:
                entries = list(scan)
        except OSError:
            return  # os.walk skips what it cannot list
        if not entries and prefix:
            empty_dirs.append(prefix[:-1])
        for entry in entries:
            rel = prefix + entry.name
            try:
                is_dir = entry.is_dir()
            except OSError:
                is_dir = False
            if is_dir:
                if not entry.is_symlink():
                    self._ingest_tree(entry.path, rel + os.sep, files, empty_dirs, stats)
                continue
            stat = stats.get(entry.path)
            if stat is None:
                try:
                    stat = entry.stat()
                except OSError:
                    continue
            if S_ISREG(stat.st_mode):
                files[rel] = self.ingest_file(entry.path, stat=stat)

    def store_files(self, key: str, outdir: str, paths: List[str], *,
                    stdout_name: Optional[str] = None,
                    stderr_name: Optional[str] = None,
                    exit_code: int = 0,
                    command: Optional[Dict[str, Any]] = None,
                    prefer_copy: bool = True) -> Optional[CacheEntry]:
        """Store an explicit file list from ``outdir``.

        Paths outside ``outdir`` cannot be expressed as store-relative names,
        and non-regular-file paths (a Directory output, a vanished file)
        cannot be represented by this file-list form at all; either way the
        job is simply not cached (returns ``None``) rather than cached
        incompletely — a partial entry would make the warm run diverge from
        the cold one.  Defaults to copy-ingestion because a shared
        directory's files may later be rewritten in place.
        """
        outdir = os.path.abspath(outdir)
        files: Dict[str, Dict[str, Any]] = {}
        for path in paths:
            full = os.path.abspath(path)
            try:
                stat = os.stat(full)
            except OSError:
                stat = None
            if stat is None or not S_ISREG(stat.st_mode):
                logger.debug("not caching %s: output %s is not a regular file", key, full)
                return None
            rel = os.path.relpath(full, outdir)
            if rel.startswith(".."):
                logger.debug("not caching %s: output %s escapes the job directory", key, full)
                return None
            files[os.path.normpath(rel)] = self.ingest_file(full, prefer_copy=prefer_copy,
                                                            stat=stat)
        return self._write_entry(key, files, [],
                                 stdout_name=stdout_name, stderr_name=stderr_name,
                                 exit_code=exit_code, command=command)

    def _write_entry(self, key: str, files: Dict[str, Dict[str, Any]],
                     dirs: List[str], *,
                     stdout_name: Optional[str], stderr_name: Optional[str],
                     exit_code: int, command: Optional[Dict[str, Any]]) -> CacheEntry:
        manifest = {
            "version": MANIFEST_VERSION,
            "key": key,
            "files": files,
            "dirs": dirs,
            "streams": {"stdout": stdout_name, "stderr": stderr_name},
            "exit_code": exit_code,
            "command": command or {},
            "created_at": time.time(),
        }
        # json.dumps has a C encoder; json.dump to a file never uses it.
        text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        path = self._entry_path(key)
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        return CacheEntry(key=key, files=files, dirs=dirs,
                          streams={"stdout": stdout_name, "stderr": stderr_name},
                          exit_code=exit_code, command=command or {})

    # ------------------------------------------------------------------- admin

    def clear(self) -> None:
        """Drop every entry and CAS body (the store directory itself remains)."""
        for directory in (self.entries_dir, self.cas_dir):
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory, exist_ok=True)

    def __repr__(self) -> str:
        return f"<JobCache {self.cache_dir!r}>"


# -------------------------------------------------------- process-wide handles

_CACHES: Dict[str, JobCache] = {}
_CACHES_LOCK = threading.Lock()


def get_job_cache(cache_dir: Optional[str] = None) -> JobCache:
    """The process-wide :class:`JobCache` for ``cache_dir`` (created on demand).

    Keyed by real path so every engine — and every thread — pointing at the
    same store shares one instance (and makes its directories once).  The
    real path is resolved once per *spelling* of an absolute directory and
    remembered beside it: this runs once per job.
    """
    directory = os.fspath(cache_dir or default_cache_dir())
    with _CACHES_LOCK:
        cache = _CACHES.get(directory)
        if cache is None:
            real = os.path.realpath(directory)
            cache = _CACHES.get(real)
            if cache is None:
                cache = _CACHES[real] = JobCache(real)
            if os.path.isabs(directory):
                _CACHES[directory] = cache  # a relative name means what the cwd says
        return cache


def resolve_job_cache(candidate: Any) -> Optional[JobCache]:
    """Coerce ``True`` / a directory path / a :class:`JobCache` / ``None``."""
    if candidate is None or candidate is False:
        return None
    if isinstance(candidate, JobCache):
        return candidate
    if candidate is True:
        return get_job_cache(None)
    return get_job_cache(os.fspath(candidate))

