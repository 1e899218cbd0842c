"""Single-tool job execution.

A :class:`CommandLineJob` takes a tool, a job order and a runtime context and
runs the tool as a subprocess; it is how every engine executes every job.
An attempt is :meth:`~CommandLineJob.probe` (a continuation that validates,
keys and looks the job up in the job cache), then
:meth:`~CommandLineJob.cached_result`, which restores a hit, or
:meth:`~CommandLineJob.execute`, which runs the tool of a missed probe.  The
runners make that attempt in their schedulers; on the Parsl engines each
``CWLApp`` call makes it on the execution side
(:func:`repro.core.cwl_app.cached_bash_executor`) and copies the job's files
to where the call named them.  A job that runs its tool gets its own output
directory and its thread's scratch directory
(:meth:`~repro.cwl.runtime.RuntimeContext.job_tmpdir`), emptied of the
thread's last job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cwl.command_line import CommandLineParts, build_command_line, fill_in_defaults
from repro.cwl.errors import InputValidationError, JobFailure, JobTimeout
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.jobcache import (INLINE_HASH_BYTES, canonical_command, device_of,
                                input_identities, stat_inputs, unhashed_bytes)
from repro.cwl.outputs import collect_outputs
from repro.cwl.runtime import RuntimeContext, signal_job_process
from repro.cwl.schema import CommandLineTool
from repro.cwl.types import coerce_file_inputs, matches
from repro.utils.continuation import Continuation, finish
from repro.utils.logging_config import get_logger

logger = get_logger("cwl.job")


@dataclass
class JobResult:
    """Everything produced by one tool invocation."""

    outputs: Dict[str, Any]
    exit_code: int
    command: List[str]
    outdir: str
    stdout_path: Optional[str] = None
    stderr_path: Optional[str] = None
    #: True when the result was restored from the job cache instead of
    #: executing the subprocess (see :mod:`repro.cwl.jobcache`).
    cache_hit: bool = False
    #: The job's cache key (``None`` when caching is off), which the runner
    #: reports with the job's end.
    cache_key: Optional[str] = None
    #: ``(attempt, str(error), delay_s)`` of each retry made before this
    #: result where the job ran, for the submitting side to report (a Parsl
    #: task's; :func:`repro.core.workflow_bridge.run_app`).
    retries: Tuple[Tuple[int, str, float], ...] = ()


@dataclass
class CacheProbe:
    """What :meth:`CommandLineJob.probe` found, handed to the segment that
    follows it: :meth:`CommandLineJob.cached_result` restores ``entry``,
    :meth:`CommandLineJob.execute` runs the tool and stores under ``key``.

    ``context`` is the job's context with the tool's resources granted.
    ``cache``, ``key`` and ``entry`` are ``None`` when caching is off;
    ``entry`` is the checked hit, or ``None`` on a miss.  ``identities``
    are the content identities of the job's inputs the key was made from
    (:func:`~repro.cwl.jobcache.input_identities`), which a miss records its
    command line with.
    """

    context: RuntimeContext
    cache: Any = None
    key: Optional[str] = None
    entry: Any = None
    identities: Optional[Dict[str, str]] = None


@dataclass
class StagedJob:
    """Everything :meth:`CommandLineJob.stage_execution` prepares up front.

    Carries the state between the three steps :meth:`CommandLineJob.execute`
    composes — ``stage_execution`` → ``launch`` → ``collect_execution`` — so
    none of it is derived twice.  The steps run back to back on one worker:
    both scheduler cores call ``execute()`` whole (the pipelined core in its
    exec lane), none calls the steps individually.
    """

    outdir: str
    tmpdir: str
    runtime: Dict[str, Any]
    evaluator: Any
    parts: CommandLineParts
    cache: Any = None
    cache_key: Optional[str] = None
    identities: Optional[Dict[str, str]] = None
    stdout_path: Optional[str] = None
    stderr_path: Optional[str] = None


class _AsyncProcessHandle:
    """Popen-shaped view of an asyncio subprocess for interrupt-time reaping.

    ``RuntimeContext.terminate_processes`` expects ``pid``/``poll``/
    ``send_signal``/``wait(timeout)``; asyncio's Process has a coroutine
    ``wait`` instead, so this adapter polls ``returncode`` (only exercised
    during interrupt teardown, never on the hot path).
    """

    def __init__(self, proc: "asyncio.subprocess.Process") -> None:
        self._proc = proc

    @property
    def pid(self) -> int:
        return self._proc.pid

    def poll(self) -> Optional[int]:
        return self._proc.returncode

    def send_signal(self, sig: int) -> None:
        self._proc.send_signal(sig)

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._proc.returncode is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired("<async job>", timeout or 0)
            time.sleep(0.02)
        return self._proc.returncode


def _exec_failure_code(exc: OSError) -> int:
    """What a shell exits with for an argv it cannot exec."""
    return 127 if isinstance(exc, FileNotFoundError) else 126


def run_process(argv: List[str], register: Callable[[Any], None],
                unregister: Callable[[Any], None], job_name: str,
                timeout_s: Optional[float], **popen: Any) -> int:
    """Run one job's ``argv`` (no shell) to completion; its exit code.

    The spawn-and-reap routine of :meth:`CommandLineJob.launch`, on every
    engine; ``register`` / ``unregister`` track the live process for
    interrupt-time reaping.  It leads its own session, so reaping signals
    its whole group: a shell wrapper cannot orphan grandchildren
    (``sh -c '...; sleep N'``).
    An argv that cannot be exec'd exits 127 (not found) or 126 (not
    executable), as under a shell; past ``timeout_s`` the group is reaped
    and :class:`JobTimeout` raised.
    """
    try:
        proc = subprocess.Popen(argv, start_new_session=True, **popen)
    except (FileNotFoundError, PermissionError) as exc:
        return _exec_failure_code(exc)
    register(proc)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        _reap(proc)
        raise JobTimeout(job_name, float(timeout_s or 0)) from None
    except BaseException:
        # Interrupted mid-wait (KeyboardInterrupt/SIGTERM unwinding the
        # serial path): reap before unregistering, or the tool would
        # outlive the run.
        _reap(proc)
        raise
    finally:
        unregister(proc)


def _reap(proc: "subprocess.Popen", grace_s: float = 2.0) -> None:
    """SIGTERM the timed-out subprocess (and its group), then SIGKILL."""
    try:
        signal_job_process(proc, signal.SIGTERM)
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        signal_job_process(proc, signal.SIGKILL)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            logger.warning("timed-out job pid %s survived SIGKILL", proc.pid)
    except OSError:
        pass


@dataclass
class CommandLineJob:
    """One concrete invocation of a CommandLineTool."""

    tool: CommandLineTool
    job_order: Dict[str, Any]
    runtime_context: RuntimeContext = field(default_factory=RuntimeContext)
    #: The runner's choice of expression evaluator for a tool
    #: (:meth:`~repro.cwl.runners.base.BaseRunner.evaluator_for`); by default
    #: the tool's own compiled evaluator.
    evaluator_for: Callable[[CommandLineTool], Any] = precompile_process
    #: The ``os.stat`` of input files made when their File values were built
    #: (here, or by the caller just before), by path: the probe's
    #: :func:`~repro.cwl.jobcache.stat_inputs` starts from them.
    input_stats: Dict[str, os.stat_result] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.job_order = {k: coerce_file_inputs(v, self.input_stats) for k, v in
                          fill_in_defaults(self.tool.inputs, self.job_order).items()}

    # ------------------------------------------------------------- validation

    def validate_inputs(self) -> List[str]:
        """Return a list of problems with the job order (empty = valid)."""
        problems: List[str] = []
        declared = {p.id for p in self.tool.inputs}
        for param in self.tool.inputs:
            value = self.job_order.get(param.id)
            if value is None:
                if param.type.is_optional or param.has_default:
                    continue
                problems.append(f"missing required input {param.id!r}")
                continue
            if not matches(value, param.type):
                problems.append(
                    f"input {param.id!r} value {value!r} does not match declared type {param.type}"
                )
        for key in self.job_order:
            if key not in declared and not key.startswith("__"):
                problems.append(f"unknown input {key!r} (tool declares {sorted(declared)})")
        return problems

    # ------------------------------------------------------------ the probe

    def make_evaluator(self):
        """The expression evaluator this job's runner uses for its tool."""
        return self.evaluator_for(self.tool)

    def _require_valid_inputs(self) -> None:
        problems = self.validate_inputs()
        if problems:
            raise InputValidationError(
                f"job order for tool {self.tool.id!r} is invalid: " + "; ".join(problems)
            )

    def _make_job_dir(self) -> str:
        return self.runtime_context.make_job_dir(
            name=(self.tool.id or "tool").replace("/", "_") or "tool"
        )

    def probe_stays_inline(self, *devices: int) -> bool:
        """Whether keying this job and staging a hit touch file metadata
        only, as far as can be seen before the probe.

        True when keying reads at most ``INLINE_HASH_BYTES`` of input not
        hashed yet, and a hit hardlinks its files instead of copying them:
        the job cache, and every store a hit is staged into (``devices``,
        the Toil job store's), is on the device of the job directories.
        """
        cache = self.runtime_context.get_job_cache()
        return cache is None or self._stays_inline(
            cache, stat_inputs(self.job_order, self.input_stats), devices)

    def _stays_inline(self, cache: Any, stats: Dict[str, os.stat_result],
                      devices: Tuple[int, ...]) -> bool:
        """:meth:`probe_stays_inline` of the job's :func:`stat_inputs`."""
        device = device_of(self.runtime_context.job_dir_base())
        return (all(store == device for store in (cache.device, *devices))
                and unhashed_bytes(stats) <= INLINE_HASH_BYTES)

    def probe(self, *devices: int) -> Continuation[CacheProbe]:
        """Validate the job order, key it and look it up in the job cache.
        The first segment of every attempt, and the only way into the cache
        on the runners.

        A continuation that yields before it would read or copy file bodies,
        so only metadata work stays on the thread that dispatches workflow
        nodes: before keying when :meth:`probe_stays_inline` says no, and
        before checking a hit whose bodies not yet hashed in this process
        exceed ``INLINE_HASH_BYTES``.  Hashing and copying release the GIL,
        so after the yield a pool thread does them in parallel with the rest
        of the run.  ``devices`` are the stores a hit is also staged into.
        With caching off it returns at once, without yielding.  Touches no
        directory of the job.  One pass over the job order stats each input
        file once; the decision to yield and the key both use that stat, and
        the key's identities go on with the probe to a miss's publish.  A
        file whose value the job built from its path alone was stat'ed then
        (:attr:`input_stats`), and is not stat'ed again.
        """
        cache = self.runtime_context.get_job_cache()
        stats = stat_inputs(self.job_order, self.input_stats) if cache is not None else {}
        inline = cache is None or self._stays_inline(cache, stats, devices)
        if not inline:
            yield
        self._require_valid_inputs()
        context = self.runtime_context.with_resources(self.tool)
        if cache is None:
            return CacheProbe(context)
        identities = input_identities(self.job_order, stats)
        key = context.cache_key(self.tool, self.job_order, identities)
        entry = cache.manifest(key)
        if inline and entry is not None and cache.unhashed_body_bytes(entry) > INLINE_HASH_BYTES:
            yield
        return CacheProbe(context, cache, key, cache.checked(entry), identities)

    def cached_result(self, probe: CacheProbe) -> Optional[JobResult]:
        """Restore the hit ``probe`` found; ``None`` on a miss.  The one hit path.

        Makes one directory, the job's output directory, where the cached
        files are hardlinked, and no scratch directory: ``runtime.tmpdir``
        is an absolute path that was never created, because nothing runs
        that could write there.  Skips command-line construction entirely
        (the key proves the resolved command would be identical), which is
        what makes warm re-runs of expression-heavy tools near-constant time;
        output collection still runs against the restored files, so hits and
        misses flow through identical collection code.
        """
        entry = probe.entry
        if entry is None:
            return None
        logger.debug("job cache hit for %s (key %s)", self.tool.id, entry.key)
        outdir = self._make_job_dir()
        probe.cache.restore(entry, outdir)
        stdout_name = entry.stream_name("stdout")
        stderr_name = entry.stream_name("stderr")
        stdout_path = os.path.join(outdir, stdout_name) if stdout_name else None
        stderr_path = os.path.join(outdir, stderr_name) if stderr_name else None
        outputs = collect_outputs(
            self.tool,
            outdir=outdir,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
            job_order=self.job_order,
            runtime=probe.context.runtime_object(outdir, self.runtime_context.unmade_tmpdir()),
            evaluator=self.make_evaluator(),
        )
        return JobResult(
            outputs=outputs,
            exit_code=entry.exit_code,
            command=list(entry.command.get("argv") or []),
            outdir=outdir,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
            cache_hit=True,
            cache_key=entry.key,
        )

    # -------------------------------------------------------------- execution

    def execute(self, probe: Optional[CacheProbe] = None) -> JobResult:
        """Run the tool of a missed ``probe`` as a subprocess and collect its
        outputs; a miss is stored in the job cache for the next run.

        Without ``probe`` the job probes itself on this thread and returns
        a hit's restored result, so a job built directly behaves like one
        attempt of a runner.  Synchronous composition of
        :meth:`stage_execution` (job dirs, command line), :meth:`launch` and
        :meth:`collect_execution` (outputs, cache store).
        Every caller runs it whole on one worker — under the pipelined
        scheduler core that is the exec lane; that core's stage and collect
        lanes only gather step inputs and store step outputs
        (``repro.cwl.workflow._PipelinedNodeExecutor``).
        """
        if probe is None:
            probe = finish(self.probe())
            cached = self.cached_result(probe)
            if cached is not None:
                return cached
        staged = self.stage_execution(probe)
        exit_code = self.launch(staged)
        return self.collect_execution(staged, exit_code)

    # ------------------------------------------------- pipeline: stage inputs

    def stage_execution(self, probe: CacheProbe) -> StagedJob:
        """Prepare everything the subprocess of a missed ``probe`` needs: the
        output directory, this thread's scratch directory, then the command
        line.  Pure staging — nothing is executed yet."""
        evaluator = self.make_evaluator()
        outdir = self._make_job_dir()
        tmpdir = self.runtime_context.job_tmpdir()
        runtime = probe.context.runtime_object(outdir, tmpdir)
        parts = build_command_line(self.tool, self.job_order, runtime, evaluator)
        return StagedJob(
            outdir=outdir, tmpdir=tmpdir, runtime=runtime, evaluator=evaluator,
            parts=parts, cache=probe.cache, cache_key=probe.key, identities=probe.identities,
            stdout_path=os.path.join(outdir, parts.stdout) if parts.stdout else None,
            stderr_path=os.path.join(outdir, parts.stderr) if parts.stderr else None)

    # ---------------------------------------------- pipeline: run the process

    def _open_launch_handles(self, staged: StagedJob) \
            -> Tuple[Any, Any, Any, Optional[Dict[str, str]]]:
        parts = staged.parts
        stdin_handle = open(parts.stdin, "rb") if parts.stdin else subprocess.DEVNULL
        stdout_handle = open(staged.stdout_path, "wb") if staged.stdout_path \
            else subprocess.DEVNULL
        stderr_handle = open(staged.stderr_path, "wb") if staged.stderr_path \
            else subprocess.DEVNULL

        env = self.runtime_context.spawn_environment(
            parts.environment, defaults={"HOME": staged.outdir, "TMPDIR": staged.tmpdir})
        return stdin_handle, stdout_handle, stderr_handle, env

    @staticmethod
    def _close_launch_handles(*handles: Any) -> None:
        for handle in handles:
            if handle is not subprocess.DEVNULL and hasattr(handle, "close"):
                handle.close()

    def launch(self, staged: StagedJob) -> int:
        """Run the staged subprocess through :func:`run_process`, registered
        with the run's context; its exit code.

        Raises :class:`JobTimeout` on timeout and :class:`JobFailure` on a
        non-success exit code, its ``result`` where the attempt's files are.
        """
        parts = staged.parts
        context = self.runtime_context
        stdin_handle, stdout_handle, stderr_handle, env = \
            self._open_launch_handles(staged)

        logger.debug("executing %s in %s", parts.argv, staged.outdir)
        try:
            exit_code = run_process(
                parts.argv, context.register_process, context.unregister_process,
                self.tool.job_name, context.timeout_s, cwd=staged.outdir, env=env,
                stdin=stdin_handle, stdout=stdout_handle, stderr=stderr_handle)
            return self._permitted(exit_code, parts)
        except (JobFailure, JobTimeout) as failure:
            failure.result = JobResult({}, getattr(failure, "exit_code", None), parts.argv,
                                       staged.outdir, staged.stdout_path, staged.stderr_path)
            raise
        finally:
            self._close_launch_handles(stdin_handle, stdout_handle, stderr_handle)

    def _permitted(self, exit_code: int, parts: CommandLineParts) -> int:
        """``exit_code``, or :class:`JobFailure` if ``successCodes`` forbid it."""
        if exit_code not in self.tool.success_codes:
            raise JobFailure(self.tool.job_name, exit_code, " ".join(parts.argv))
        return exit_code

    async def launch_async(self, staged: StagedJob) -> int:
        """:meth:`launch` as a coroutine via ``asyncio.create_subprocess_exec``.

        The subprocess still leads its own session/process group and is
        registered with the runtime context (through a Popen-shaped adapter)
        so interrupt-time ``terminate_processes`` reaps it like any other
        job; timeout reaping SIGTERMs then SIGKILLs the whole group.
        """
        import asyncio

        parts = staged.parts
        stdin_handle, stdout_handle, stderr_handle, env = \
            self._open_launch_handles(staged)

        logger.debug("executing %s in %s (async)", parts.argv, staged.outdir)
        handle = None
        try:
            try:
                proc = await asyncio.create_subprocess_exec(
                    *parts.argv,
                    cwd=staged.outdir,
                    env=env,
                    stdin=stdin_handle,
                    stdout=stdout_handle,
                    stderr=stderr_handle,
                    start_new_session=True,
                )
            except (FileNotFoundError, PermissionError) as exc:
                return self._permitted(_exec_failure_code(exc), parts)
            handle = _AsyncProcessHandle(proc)
            self.runtime_context.register_process(handle)
            try:
                exit_code = await asyncio.wait_for(
                    proc.wait(), timeout=self.runtime_context.timeout_s)
            except asyncio.TimeoutError:
                await self._reap_async(proc)
                raise JobTimeout(self.tool.job_name,
                                 float(self.runtime_context.timeout_s or 0))
            except BaseException:
                # Cancelled mid-wait (scheduler shutdown): reap before the
                # finally unregisters, or the tool would outlive the runner.
                await self._reap_async(proc)
                raise
        finally:
            if handle is not None:
                self.runtime_context.unregister_process(handle)
            self._close_launch_handles(stdin_handle, stdout_handle, stderr_handle)
        return self._permitted(exit_code, parts)

    # -------------------------------------------- pipeline: collect + persist

    def collect_execution(self, staged: StagedJob, exit_code: int) -> JobResult:
        """Collect outputs and store them into the cache."""
        parts = staged.parts
        stats: Dict[str, os.stat_result] = {}  # one stat per output, shared with the store
        outputs = collect_outputs(
            self.tool,
            outdir=staged.outdir,
            stdout_path=staged.stdout_path,
            stderr_path=staged.stderr_path,
            job_order=self.job_order,
            runtime=staged.runtime,
            evaluator=staged.evaluator,
            stats=stats,
        )
        cacheable = not any(name and os.path.isabs(name)
                            for name in (parts.stdout, parts.stderr))
        if staged.cache is not None and staged.cache_key is not None and cacheable:
            try:
                staged.cache.store_outdir(
                    staged.cache_key, staged.outdir,
                    stdout_name=parts.stdout, stderr_name=parts.stderr,
                    exit_code=exit_code, stats=stats,
                    command=canonical_command(parts.argv, parts.stdin, parts.stdout,
                                              parts.stderr, parts.environment,
                                              outdir=staged.outdir, tmpdir=staged.tmpdir,
                                              job_order=self.job_order,
                                              identities=staged.identities),
                )
            except Exception:
                # A full/read-only store must never fail a job that succeeded.
                logger.warning("could not store job %s in the cache at %s",
                               self.tool.id, staged.cache.cache_dir, exc_info=True)
        return JobResult(
            outputs=outputs,
            exit_code=exit_code,
            command=parts.argv,
            outdir=staged.outdir,
            stdout_path=staged.stdout_path,
            stderr_path=staged.stderr_path,
            cache_key=staged.cache_key,
        )

    @staticmethod
    async def _reap_async(proc: "asyncio.subprocess.Process",
                          grace_s: float = 2.0) -> None:
        """:func:`_reap` for the asyncio exec path — same SIGTERM→SIGKILL
        escalation against the whole process group, awaited instead of
        blocked on."""
        import asyncio

        try:
            signal_job_process(proc, signal.SIGTERM)
            await asyncio.wait_for(proc.wait(), timeout=grace_s)
        except asyncio.TimeoutError:
            signal_job_process(proc, signal.SIGKILL)
            try:
                await asyncio.wait_for(proc.wait(), timeout=grace_s)
            except asyncio.TimeoutError:
                logger.warning("timed-out job pid %s survived SIGKILL", proc.pid)
        except OSError:
            pass
