"""Runtime context for job execution.

The CWL ``runtime`` object exposed to expressions describes where a job runs
(output and temporary directories) and what resources it was granted (cores,
RAM).  :class:`RuntimeContext` carries the same information plus runner-level
policy (base directories for new working directories, whether to reuse
results through the content-addressed job cache, retries, timeouts).
"""

from __future__ import annotations

import os
import re
import shutil
import signal as _signal_module
import tempfile
import threading
import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from repro.cwl.jobcache import CACHE_DIR_ENV, default_cache_dir, get_job_cache, job_key
from repro.cwl.journal import run_cache_dir
from repro.utils.environment import RunEnvironment


def signal_job_process(proc: Any, sig: int) -> None:
    """Deliver ``sig`` to a job subprocess — its whole group when it leads one.

    Jobs are spawned with ``start_new_session=True`` so shell wrappers
    (``sh -c '...; sleep N'``) cannot orphan grandchildren when reaped: the
    signal goes to the process group.  The group path is guarded by a
    leader check so a process that (unexpectedly) shares our group is never
    group-signalled — that would hit the caller itself.
    """
    try:
        if os.getpgid(proc.pid) == proc.pid:
            os.killpg(proc.pid, sig)
            return
    except (OSError, AttributeError):
        pass
    try:
        proc.send_signal(sig)
    except OSError:
        pass


class _ThreadDirs(dict):
    """A context family's ``_thread_dirs``: a dict that can be weakly
    referenced, so the family's directories can be removed with it."""

    finalizer: Optional[weakref.finalize] = None


@dataclass
class RuntimeContext:
    """Execution-time settings shared by all runners."""

    #: Where a run stages its output object (``cwltool --outdir``).  No job
    #: runs in it: a run's jobs run in a root of its own (:attr:`job_dir`).
    outdir: Optional[str] = None
    #: Base directory for per-job working directories.
    basedir: Optional[str] = None
    #: Temporary directory prefix.
    tmpdir_prefix: Optional[str] = None
    #: Cores granted to each job (exposed as ``runtime.cores``).
    cores: int = 1
    #: RAM granted to each job in MiB (exposed as ``runtime.ram``).
    ram_mb: int = 1024
    #: Extra environment variables for every job.
    env: Dict[str, str] = field(default_factory=dict)
    #: Reuse CommandLineTool results through the content-addressed job cache
    #: (:mod:`repro.cwl.jobcache`).  Tri-state: ``None`` enables the cache exactly when a store was named — via
    #: :attr:`cache_dir` or the ``REPRO_JOBCACHE_DIR`` environment variable —
    #: ``True`` forces it on (using the default store when none was named)
    #: and ``False`` forces it off regardless of :attr:`cache_dir`.
    job_cache: Optional[bool] = None
    #: Directory of the job-cache store (shared freely between engines,
    #: sessions and processes).  ``None`` falls back to ``REPRO_JOBCACHE_DIR``
    #: or a per-user directory under the system temp dir.
    cache_dir: Optional[str] = None
    #: Bounded-retry policy (:class:`~repro.cwl.retry.RetryPolicy`) applied to
    #: every job; ``None`` disables retries (fail on first error).
    retry_policy: Optional[Any] = None
    #: Per-job wall-clock deadline in seconds.  On expiry the subprocess is
    #: reaped (SIGTERM, grace period, SIGKILL) and a retryable
    #: :class:`~repro.cwl.errors.JobTimeout` raised.
    timeout_s: Optional[float] = None
    #: Workflow failure semantics: ``"stop"`` aborts the DAG on the first
    #: failed node (historic behaviour); ``"continue"`` lets independent
    #: branches finish — the failed node poisons only its transitive
    #: successors (marked ``skipped``) and partial outputs are returned.
    on_error: str = "stop"
    #: Deterministic fault-injection plan (:class:`~repro.cwl.faults.FaultPlan`)
    #: consulted before every job attempt; ``None`` injects nothing.
    fault_plan: Optional[Any] = None
    #: Run directory of a journalled, resumable run (:mod:`repro.cwl.journal`);
    #: an unset :attr:`cache_dir` then means its store ``<run_dir>/jobcache``.
    run_dir: Optional[str] = None
    #: Run workflows on the asyncio pipelined scheduler core instead of the
    #: thread-pool core (runner engines; opt-in — see README "The pipelined
    #: scheduler core").
    pipeline: bool = False
    #: Bound on jobs in flight: the pipelined core's stage/exec/collect
    #: window on the runner engines (``None`` = 64), the workflow steps
    #: parked on an unfinished task on the Parsl engines (``None`` = no cap).
    max_inflight: Optional[int] = None
    #: Scratch directories this context created, removed by :meth:`close`.
    _scratch_dirs: Set[str] = field(default_factory=set, repr=False, compare=False)
    #: ``(thread, kind)`` -> that thread's reused directory of that kind
    #: (:meth:`thread_dir`), shared with children like the set above.
    _thread_dirs: _ThreadDirs = field(default_factory=_ThreadDirs, repr=False, compare=False)
    #: Live subprocesses started under this context (shared with children),
    #: so an interrupted run can reap them via :meth:`terminate_processes`.
    _live_procs: Set[Any] = field(default_factory=set, repr=False, compare=False)
    #: Parent directories this context itself had to create for staging;
    #: pruned (when empty) by :meth:`cleanup_dir` / :meth:`close`.
    _created_parents: Set[str] = field(default_factory=set, repr=False, compare=False)
    _teardown_lock: threading.Lock = field(default_factory=threading.Lock,
                                           repr=False, compare=False)
    #: The open :class:`~repro.cwl.journal.RunJournal` of the execution this
    #: context belongs to, set by :func:`~repro.cwl.journal.run_journalled`.
    _journal: Optional[Any] = field(default=None, repr=False, compare=False)
    #: The directory this context's process runs in, given out by the run:
    #: its root (:func:`~repro.cwl.outputs.run_in_root`), or a node's
    #: directory under it (:meth:`node_context`).
    _job_dir: Optional[str] = field(default=None, repr=False, compare=False)
    #: The environment the run this context belongs to spawns its tools
    #: with (:meth:`run_in`); ``None`` outside a run.
    _run_environment: Optional[RunEnvironment] = field(default=None, repr=False,
                                                       compare=False)

    @property
    def journal(self) -> Optional[Any]:
        """The run journal records go to, or ``None`` outside a journalled run."""
        return self._journal

    @property
    def job_dir(self) -> Optional[str]:
        """The directory the run gave this context's process, if any."""
        return self._job_dir

    @property
    def run_environment(self) -> Optional[RunEnvironment]:
        """The spawn environment of the run this context belongs to, if any."""
        return self._run_environment

    def run_in(self, root: str) -> "RuntimeContext":
        """The context of a run whose root is ``root``: it names no
        ``outdir``, its jobs run under ``root`` (:meth:`node_context`) and
        are spawned with one :class:`~repro.utils.environment.RunEnvironment`,
        the run's own."""
        return self.child(outdir=None, _job_dir=root, _run_environment=RunEnvironment())

    def spawn_environment(self, *overlays: Dict[str, str],
                          defaults: Mapping[str, str]) -> Optional[Dict[str, str]]:
        """The ``env=`` a job's tool is spawned with: its run's environment
        (read from ``os.environ`` once per run; outside a run, now), then
        :attr:`env`, then ``overlays`` (the tool's ``EnvVarRequirement``),
        then ``defaults`` where unset; ``None`` (inherit the process's) when
        that is exactly the process's environment
        (:meth:`~repro.utils.environment.RunEnvironment.popen_env`)."""
        environment = self._run_environment or RunEnvironment()
        return environment.popen_env(self.env, *overlays, defaults=defaults)

    def ensure_outdir(self) -> str:
        """Create (if needed) and return the output directory."""
        if self.outdir is None:
            self.outdir = tempfile.mkdtemp(prefix="cwl-out-", dir=self.basedir)
        os.makedirs(self.outdir, exist_ok=True)
        return self.outdir

    def job_dir_base(self) -> str:
        """The directory :meth:`make_job_dir` makes job directories in."""
        return self.basedir or tempfile.gettempdir()

    def make_job_dir(self, name: str = "job") -> str:
        """The working directory of one job: the context's :attr:`job_dir`
        when the run gave it one, made (not its parent: a removed root stays
        removed) or, for a retry, emptied; else a fresh ``cwl-<name>-*``
        directory."""
        if self._job_dir is not None:
            try:
                os.mkdir(self._job_dir)
            except FileExistsError:
                empty_directory(self._job_dir)
            return self._job_dir
        base = self.job_dir_base()
        with self._teardown_lock:
            self._make_parent_locked(base)
            return tempfile.mkdtemp(prefix=f"cwl-{name}-", dir=base)

    def make_tmpdir(self) -> str:
        """Create a fresh scratch directory (tracked for teardown)."""
        prefix = self.tmpdir_prefix or "cwl-tmp-"
        with self._teardown_lock:
            self._make_parent_locked(os.path.dirname(prefix))
            path = tempfile.mkdtemp(prefix=prefix)
            self._scratch_dirs.add(path)
        return path

    def job_tmpdir(self) -> str:
        """The scratch directory of a job that runs its tool on this thread:
        one per thread and ``tmpdir_prefix`` in this context family, made by
        :meth:`make_tmpdir` for the thread's first job and emptied for each
        later one (:meth:`thread_dir`)."""
        return self.thread_dir(self.tmpdir_prefix, self.make_tmpdir)

    def thread_dir(self, kind: Any, make: Callable[[], str]) -> str:
        """This thread's directory of ``kind`` in this context family,
        emptied of what the thread's last job left there: made by ``make``
        the first time (or again, if it was removed behind the context's
        back) and removed by :meth:`close`."""
        key = (threading.get_ident(), kind)
        path = self._thread_dirs.get(key)
        if path is not None:
            try:
                empty_directory(path)
                return path
            except FileNotFoundError:
                pass
        path = make()
        with self._teardown_lock:
            if self._thread_dirs.finalizer is None:
                # A family dropped without close() takes its directories along.
                self._thread_dirs.finalizer = weakref.finalize(
                    self._thread_dirs, _remove_directories, self._scratch_dirs)
            self._thread_dirs[key] = path
            self._scratch_dirs.add(path)
        return path

    def _make_parent_locked(self, parent: str) -> None:
        """Make a missing staging parent, tracked for pruning.  Under the
        teardown lock, like the pruning, so a concurrent job's cleanup cannot
        remove the parent between this check and the ``mkdtemp`` in it."""
        if parent and not os.path.isdir(parent):
            os.makedirs(parent, exist_ok=True)
            self._created_parents.add(os.path.abspath(parent))

    def unmade_tmpdir(self) -> str:
        """Where :meth:`make_tmpdir` would put a scratch directory, not made.

        What ``runtime.tmpdir`` reads on a job-cache hit: an absolute path
        under the same prefix that does not exist, because a hit runs nothing
        that could write there — so there is nothing to track or remove.
        """
        return os.path.abspath(os.path.join(
            tempfile.gettempdir(), (self.tmpdir_prefix or "cwl-tmp-") + "unmade"))

    def runtime_object(self, outdir: str, tmpdir: str) -> Dict[str, Any]:
        """The ``runtime`` dictionary exposed to expressions for one job."""
        return {
            "outdir": outdir,
            "tmpdir": tmpdir,
            "cores": self.cores,
            "ram": self.ram_mb,
            "outdirSize": 1024,
            "tmpdirSize": 1024,
        }

    def child(self, **overrides: Any) -> "RuntimeContext":
        """A copy of this context with selected fields replaced.

        Children share the parent's scratch-dir tracking (and its lock), so a
        single :meth:`close` on any of them tears the whole family down —
        exactly once, however many threads race to do it.
        """
        return replace(self, **overrides)

    def node_context(self, node_id: str) -> "RuntimeContext":
        """The context of node ``node_id`` of the run whose root is this
        context's :attr:`job_dir`: its job directory is the node's path under
        the root (``<scope>/<step>``, a shard ``step[i]`` at ``step/i``), with
        the dots of a ``..`` or ``.`` component spelled ``%2E`` (and ``%`` as
        ``%25``), so that no node's directory is outside the root or another
        node's.  The directories between are made one at a time, never the
        root: once it is removed, a node fails with :exc:`FileNotFoundError`."""
        *parents, leaf = (
            part.replace("%", "%25") if part.strip(".") else part.replace(".", "%2E") or "%"
            for part in re.sub(r"\[(\d+)\]", r"/\1", node_id).split("/"))
        directory = self._job_dir
        for part in parents:
            directory = os.path.join(directory, part)
            try:
                os.mkdir(directory)
            except FileExistsError:
                pass
        return self.child(_job_dir=os.path.join(directory, leaf))

    def with_resources(self, process: Any) -> "RuntimeContext":
        """A context whose cores/RAM honour the process's ``ResourceRequirement``.

        ``coresMin`` / ``ramMin`` (falling back to ``coresMax`` / ``ramMax``)
        override this context's defaults, so ``$(runtime.cores)`` and
        ``$(runtime.ram)`` expressions see what the tool asked for.  Values
        that are not plain numbers (e.g. expressions) are left to the
        defaults.  Returns ``self`` unchanged when the process declares no
        resource requirement.
        """
        getter = getattr(process, "get_requirement", None)
        requirement = getter("ResourceRequirement") if getter else None
        if not requirement:
            return self
        cores = _as_positive_int(requirement.get("coresMin"),
                                 _as_positive_int(requirement.get("coresMax"), self.cores))
        ram = _as_positive_int(requirement.get("ramMin"),
                               _as_positive_int(requirement.get("ramMax"), self.ram_mb))
        if cores == self.cores and ram == self.ram_mb:
            return self
        return self.child(cores=cores, ram_mb=ram)

    # ------------------------------------------------------------- job cache

    def job_cache_dir(self) -> Optional[str]:
        """The resolved store directory, or ``None`` when caching is off.

        Tri-state resolution: ``job_cache=False`` always disables;
        ``job_cache=True`` always enables; ``job_cache=None`` enables exactly
        when a store was named via :attr:`cache_dir`, :attr:`run_dir` or
        ``REPRO_JOBCACHE_DIR``.  The store is the first of :attr:`cache_dir`,
        the run's ``<run_dir>/jobcache``, then the default store.
        """
        if self.job_cache is False:
            return None
        if self.cache_dir:
            return os.fspath(self.cache_dir)
        if self.run_dir:
            return run_cache_dir(self.run_dir)
        if self.job_cache:
            return default_cache_dir()
        return os.environ.get(CACHE_DIR_ENV) or None

    def get_job_cache(self):
        """The shared :class:`~repro.cwl.jobcache.JobCache`, or ``None``."""
        directory = self.job_cache_dir()
        if directory is None:
            return None
        return get_job_cache(directory)

    def cache_key(self, tool: Any, job_order: Dict[str, Any],
                  identities: Dict[str, str]) -> str:
        """The job-cache key of one invocation of ``tool`` under this context,
        which has granted the tool its resources (:meth:`with_resources`).

        How every engine keys a job — the runner engines in
        :meth:`~repro.cwl.job.CommandLineJob.probe`, the Parsl engines
        on the execution side of a ``CWLApp`` — so the extra environment and
        the resources granted after the tool's ``ResourceRequirement`` are in
        every key, and a store is warm across engines exactly when the job
        would run the same way.  ``identities`` are the job order's
        :func:`~repro.cwl.jobcache.input_identities`.
        """
        return job_key(tool, job_order, cores=self.cores, ram_mb=self.ram_mb,
                       extra_env=self.env, identities=identities)

    # ------------------------------------------------------------ subprocesses

    def register_process(self, proc: Any) -> None:
        """Track a live job subprocess for interrupt-time reaping."""
        with self._teardown_lock:
            self._live_procs.add(proc)

    def unregister_process(self, proc: Any) -> None:
        with self._teardown_lock:
            self._live_procs.discard(proc)

    def live_processes(self) -> List[Any]:
        """The registered job subprocesses that are still running."""
        with self._teardown_lock:
            return [proc for proc in self._live_procs if proc.poll() is None]

    def terminate_processes(self, grace_s: float = 2.0) -> int:
        """SIGTERM every live job subprocess, escalating to SIGKILL.

        Called on :exc:`KeyboardInterrupt`/SIGTERM so workers blocked in
        ``proc.wait()`` unblock promptly and teardown can run.  Returns the
        number of processes signalled.
        """
        procs = self.live_processes()
        for proc in procs:
            signal_job_process(proc, _signal_module.SIGTERM)
        deadline = _now() + grace_s
        for proc in procs:
            remaining = deadline - _now()
            try:
                proc.wait(timeout=max(remaining, 0.05))
            except Exception:
                try:
                    signal_job_process(proc, _signal_module.SIGKILL)
                    proc.wait(timeout=grace_s)
                except Exception:
                    pass
        return len(procs)

    # --------------------------------------------------------------- teardown

    def cleanup_dir(self, path: str) -> None:
        """Best-effort removal of a scratch directory.

        Unlike a bare ``shutil.rmtree(..., ignore_errors=True)``, this also
        prunes the now-empty staging *parents* this context created for the
        directory (e.g. a ``tmpdir_prefix`` or ``basedir`` parent), so a
        closed context leaves no empty directory skeletons behind.
        """
        shutil.rmtree(path, ignore_errors=True)
        with self._teardown_lock:
            self._scratch_dirs.discard(path)
        self._prune_empty_parents(os.path.dirname(os.path.abspath(path)))

    def _prune_empty_parents(self, directory: str) -> None:
        """Remove ``directory`` and its ancestors while they are empty dirs
        that this context itself created."""
        while directory:
            with self._teardown_lock:
                if directory not in self._created_parents:
                    return
                try:
                    os.rmdir(directory)
                except OSError:
                    return  # not empty (or already gone from another closer)
                self._created_parents.discard(directory)
            directory = os.path.dirname(directory)

    def close(self) -> None:
        """Remove every scratch directory this context created.

        Idempotent and safe under concurrent close: each directory is claimed
        under the lock before removal, so two racing closers never tear down
        (or double-report) the same path, and a second :meth:`close` finds
        nothing left to do.
        """
        with self._teardown_lock:
            self._thread_dirs.clear()
        while True:
            with self._teardown_lock:
                if not self._scratch_dirs:
                    break
                path = self._scratch_dirs.pop()
            shutil.rmtree(path, ignore_errors=True)
            self._prune_empty_parents(os.path.dirname(os.path.abspath(path)))
        # Claimed-parent cleanup for contexts that made parents but no scratch
        # dirs survived to prune them.
        with self._teardown_lock:
            parents = sorted(self._created_parents, key=len, reverse=True)
            self._created_parents.clear()
        for parent in parents:
            try:
                os.rmdir(parent)
            except OSError:
                pass


def context_with_options(runtime_context: Optional[RuntimeContext],
                         options: Dict[str, Any]) -> RuntimeContext:
    """Fold flat keyword options into a :class:`RuntimeContext`.

    The one place ``Session(engine, cache_dir=...)`` /
    ``api.run(..., retry_policy=...)`` keywords become context fields: every
    engine constructor passes its ``**options`` here.  An explicit keyword
    overrides the given context's field; ``None`` means "keep the context's
    setting"; a name that is not a public context field raises
    :exc:`TypeError`.
    """
    known = {f.name for f in fields(RuntimeContext) if not f.name.startswith("_")}
    unknown = sorted(set(options) - known)
    if unknown:
        raise TypeError(f"unknown engine option(s) {unknown}; run options are "
                        f"the RuntimeContext fields {sorted(known)}")
    context = runtime_context if runtime_context is not None else RuntimeContext()
    overrides = {k: v for k, v in options.items() if v is not None}
    return context.child(**overrides) if overrides else context


def _remove_directories(paths: Set[str]) -> None:
    while paths:
        shutil.rmtree(paths.pop(), ignore_errors=True)


def empty_directory(path: str) -> None:
    """Remove everything in ``path``; :exc:`FileNotFoundError` if it is gone."""
    with os.scandir(path) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path, ignore_errors=True)
            else:
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass


def _now() -> float:
    import time

    return time.monotonic()


def _as_positive_int(value: Any, default: int) -> int:
    """Coerce a ResourceRequirement entry to a positive int, else ``default``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    coerced = int(value)
    return coerced if coerced >= 1 else default
