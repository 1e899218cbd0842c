"""``CWLApp``: import a CWL CommandLineTool into a Parsl program (paper §III-A).

A ``CWLApp`` is constructed from a CWL ``CommandLineTool`` file (or an
already-loaded tool).  Calling it looks exactly like calling a Parsl app:

.. code-block:: python

    echo = CWLApp("echo.cwl")
    future = echo(message="Hello, World!", stdout="hello.txt")
    future.result()

What happens underneath, following the paper:

* the CWL definition supplies the input/output schema — inputs become keyword
  arguments, ``File``-typed inputs are converted to Parsl ``File`` objects (or
  accepted as ``DataFuture`` s from upstream apps, which is what lets CWLApps be
  chained without waiting),
* on the execution side, after upstream DataFutures have resolved, the call
  is one attempt of the runners' :class:`~repro.cwl.job.CommandLineJob`: the
  job-cache probe, then the hit restored or the tool's argv spawned with no
  shell, in the job's output directory: its node's directory under the
  run's root (a bridge step, or a tool run on an engine), where its files
  stay, else its worker thread's, whose files are then moved or copied to
  where the call named them,
* ``stdout`` / ``stderr`` and every output whose evaluated glob has no
  wildcard become ``DataFuture`` s on the returned ``AppFuture``
  (``future.outputs``), named at submission by the runners' own rules on
  :func:`job_order_view`; a stream the job then names differently fails it,
* if the tool carries an ``InlinePythonRequirement``, its per-input ``validate:``
  expressions run before the command executes and its expression library is
  available to ``arguments`` entries written in the paper's f-string syntax.
"""

from __future__ import annotations

import functools
import os
import shutil
import stat
import weakref
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.core.inline_python import InlinePythonEvaluator, extract_inline_python, is_python_expression
from repro.cwl.command_line import fill_in_defaults, stream_redirect
from repro.cwl.errors import (InputValidationError, JobFailure, JobTimeout, UnsupportedRequirement,
                              ValidationException)
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.job import CommandLineJob, JobResult
from repro.cwl.jobcache import stage_file
from repro.cwl.loader import load_document, load_tool
from repro.cwl.outputs import evaluated_patterns
from repro.cwl.retry import execute_with_retries
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool
from repro.cwl.types import build_file_value, coerce_file_inputs, file_value_of_path, matches
from repro.cwl.validate import ensure_valid
from repro.parsl.apps.bash import _open_std_stream, check_outputs
from repro.parsl.data_provider.files import File
from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.utils.continuation import finish

__all__ = ["CWLApp", "cwl_tool_command", "cached_bash_executor", "resilient_bash_executor",
           "report_finished", "running_jobs"]

#: The :class:`RuntimeContext` fields a job runs under, sent to the execution
#: side as ``cwl_<field>`` app kwargs.
_CONTEXT_FIELDS = ("cores", "ram_mb", "env", "timeout_s", "basedir", "tmpdir_prefix")


#: The context family of the ``CWLApp`` jobs that run on this process's
#: threads: their directories and the tools still running.  The kernel the
#: jobs were submitted to closes it when it is cleaned up.
_JOBS = RuntimeContext()
#: The process whose kernel closes :data:`_JOBS`.  A job in any other
#: process (a worker of a process-based executor) runs in a family of its
#: own, closed when the job ends.
_JOBS_PID: Optional[int] = None


def _open_jobs(dfk: DataFlowKernel) -> None:
    """Run the jobs this process submits to ``dfk`` on its own threads in
    :data:`_JOBS`, closed when ``dfk`` is cleaned up."""
    global _JOBS_PID
    _JOBS_PID = os.getpid()
    dfk.call_on_cleanup(_close_jobs)


def _close_jobs() -> None:
    global _JOBS_PID
    _JOBS_PID = None
    _JOBS.close()


def running_jobs() -> List[Any]:
    """The tools of the ``CWLApp`` jobs running on this process's threads,
    for an interrupted engine to reap."""
    return _JOBS.live_processes()


def cwl_tool_command(tool_raw: Dict[str, Any], source_path: Optional[str],
                     cwl_inputs: Dict[str, Any], stdout: Any = None, stderr: Any = None,
                     **_parsl_kwargs: Any) -> CommandLineJob:
    """Execution-side body of a CWLApp: the call's
    :class:`~repro.cwl.job.CommandLineJob`, which :func:`cached_bash_executor`
    runs.

    Receives the raw tool document plus the resolved CWL input values (Parsl
    has already replaced DataFutures with Files by the time this runs),
    rebuilds the tool model and makes the job of :func:`job_order_view`.  Its
    context carries the caller's cores, RAM, environment, timeout, job
    directories and job cache (``cwl_cores`` ... ``cwl_cache_dir``,
    ``cwl_job_dir``) and the spawn environment of the run the call belongs
    to (``cwl_run_environment``; a call outside a run reads ``os.environ``
    when it spawns), so
    ``$(runtime.*)``, the job's environment and its cache key are what the
    runner engines would use.  On a tool with an ``InlinePythonRequirement``
    the job's ``evaluator_for`` is :class:`_InlinePythonTool`.  A stream the
    call redirects (``stdout`` / ``stderr``) and the tool does not is
    captured under ``<id>.<stream>``, a field its job's tool gains, so the
    job keys apart from the tool's own and a runner never hits its entry.
    """
    tool = _tool_of(tool_raw, source_path)
    captured = {stream: f"{(tool.id or 'tool').replace('/', '_')}.{stream}"
                for stream, spec in (("stdout", stdout), ("stderr", stderr))
                if spec is not None and not getattr(tool, stream)
                and not any(param.raw_type == stream for param in tool.outputs)}
    if captured:
        tool = _tool_of(dict(tool_raw, **captured), source_path)
    stats: Dict[str, os.stat_result] = {}
    job_order = job_order_view(tool, cwl_inputs, stats)
    family = _JOBS if _JOBS_PID == os.getpid() else RuntimeContext()
    cache_dir = _parsl_kwargs.get("cwl_cache_dir")
    job_dir = _parsl_kwargs.get("cwl_job_dir")
    context = family.child(cache_dir=cache_dir, job_cache=bool(cache_dir),
                           _run_environment=_parsl_kwargs.get("cwl_run_environment"), **{
        name: _parsl_kwargs[f"cwl_{name}"] for name in _CONTEXT_FIELDS
        if _parsl_kwargs.get(f"cwl_{name}") is not None})
    # A job whose files are delivered runs in its worker thread's directory.
    outdir = job_dir or context.thread_dir(("out", context.basedir),
                                           lambda: context.make_job_dir("app"))
    evaluator_for: Any = precompile_process
    if extract_inline_python(tool) is not None:
        evaluator_for = functools.partial(_InlinePythonTool, job_order=job_order,
                                          runtime=_job_runtime(context, tool, job_dir))
    return CommandLineJob(tool, job_order, context.child(_job_dir=outdir),
                          evaluator_for=evaluator_for, input_stats=stats)


#: The tool of every live ``CWLApp``, by ``id`` of its raw document: a call
#: run on a thread of the submitting process uses its app's own tool (with
#: its fingerprint and compiled expressions) instead of loading the document
#: again.  The tool holds the document, so the ``id`` is not reused while
#: the entry lives.
_TOOLS: "weakref.WeakValueDictionary[int, CommandLineTool]" = weakref.WeakValueDictionary()


def _tool_of(tool_raw: Dict[str, Any], source_path: Optional[str]) -> CommandLineTool:
    """The tool of a ``CWLApp`` body's raw document."""
    tool = _TOOLS.get(id(tool_raw))
    if tool is not None and tool.raw is tool_raw:
        return tool
    tool = load_document(dict(tool_raw), base_dir=os.path.dirname(source_path) if source_path else None)
    if not isinstance(tool, CommandLineTool):
        raise ValidationException("CWLApp payload must be a CommandLineTool")
    return tool


class _InlinePythonTool:
    """The expression evaluator of a ``CWLApp`` job whose tool has an
    ``InlinePythonRequirement``: the job's ``evaluator_for``.

    Made before the job builds its command line or collects a hit's
    outputs, it first runs every input's ``validate:`` expression, so a
    rejected job order never runs the tool.  An ``arguments`` entry in the
    paper's f-string syntax evaluates in Python, its result one command-line
    token used verbatim (the generic builder never scans it for ``$(...)``);
    every other string goes to the tool's compiled evaluator.
    """

    def __init__(self, tool: CommandLineTool, job_order: Dict[str, Any],
                 runtime: Dict[str, Any]) -> None:
        self._python = InlinePythonEvaluator.from_process(tool)
        self._python.validate_inputs(tool, job_order, runtime)
        self._arguments = {argument for argument in tool.arguments
                           if is_python_expression(argument)}
        self._compiled = precompile_process(tool)

    def evaluate(self, value: Any, context: Dict[str, Any]) -> Any:
        if isinstance(value, str) and value in self._arguments:
            return str(self._python.evaluate(value, context))
        return self._compiled.evaluate(value, context)


def to_cwl_value(value: Any, stats: Optional[Dict[str, os.stat_result]] = None) -> Any:
    """The CWL value a Parsl-side value stands for, through lists and records.

    A :class:`DataFuture` is the File it will be, with only the fields its
    path gives: a file of that name left by an earlier run is not it.  The
    ``os.stat`` of each File it builds goes into ``stats``.
    """
    if isinstance(value, DataFuture):
        return file_value_of_path(value.filepath)
    if isinstance(value, File):
        return build_file_value(value.filepath, stats=stats)
    if isinstance(value, list):
        return [to_cwl_value(item, stats) for item in value]
    if isinstance(value, dict):
        return {key: to_cwl_value(item, stats) for key, item in value.items()}
    return value


def _to_parsl_value(value: Any, wants_file: bool) -> Any:
    """A call's input value as a ``CWLApp`` passes it on: in a File-typed
    input, a path or File value becomes a Parsl :class:`File`."""
    if isinstance(value, (DataFuture, File)):
        return value
    if isinstance(value, list):
        return [_to_parsl_value(item, wants_file) for item in value]
    if wants_file and isinstance(value, (str, os.PathLike)):
        return File(os.fspath(value))
    if wants_file and isinstance(value, dict) and value.get("class") == "File":
        return File(value.get("path") or value.get("location", ""))
    return value


def job_order_view(tool: CommandLineTool, values: Dict[str, Any],
                   stats: Optional[Dict[str, os.stat_result]] = None) -> Dict[str, Any]:
    """The job order ``tool`` sees for one call's input ``values`` (as
    passed to a :class:`CWLApp` or received by its body): the one view the
    call's file names, command line and collected outputs are evaluated on.
    The ``os.stat`` of each File value it builds goes into ``stats``."""
    job_order = {param.id: to_cwl_value(_to_parsl_value(values[param.id], param.type.is_file),
                                        stats)
                 for param in tool.inputs if param.id in values}
    return {key: coerce_file_inputs(value, stats)
            for key, value in fill_in_defaults(tool.inputs, job_order).items()}


def _job_runtime(context: RuntimeContext, tool: CommandLineTool,
                 outdir: Optional[str]) -> Dict[str, Any]:
    """The ``runtime`` a call's file names (and InlinePython ``validate:``)
    are evaluated on: the job's directory if the call named one
    (``outdir``), else the working directory its files are delivered to, as
    outdir and tmpdir; the cores and RAM the tool's ResourceRequirement is
    granted."""
    outdir = outdir or os.getcwd()
    return context.with_resources(tool).runtime_object(outdir, outdir)


def cached_bash_executor(func: Any, *args: Any, **kwargs: Any) -> int:
    """Run one ``CWLApp`` invocation: one attempt of its
    :class:`~repro.cwl.job.CommandLineJob`, as on the runner engines.

    The app body (:func:`cwl_tool_command`) makes the job; its probe's key
    and outcome go into ``cwl_cache_note``.  A hit is restored, a miss runs
    the tool and is stored, both in the job's output directory; a stream named
    at submission (``cwl_streams``) must be the one the job names.  Unless
    the call named that directory (``cwl_job_dir``), the job's files are then
    put where the call named them (:func:`_deliver`), those of a failed or
    timed-out run too before its error propagates.  Every declared output
    must then exist; the exit code (on a hit, the recorded one) is returned
    and noted.
    """
    stdout_spec = kwargs.get("stdout")
    stderr_spec = kwargs.get("stderr")
    cache_note = kwargs.setdefault("cwl_cache_note", {})

    job = func(*args, **kwargs)
    deliver = kwargs.get("cwl_job_dir") is None
    try:
        probe = finish(job.probe())
        if probe.key is not None:
            cache_note.update(key=probe.key, cache="miss" if probe.entry is None else "hit")
        result = job.cached_result(probe) or job.execute(probe)
        _check_streams(job, result, kwargs.get("cwl_streams") or {})
        if deliver:
            _deliver(result, stdout_spec, stderr_spec)
    except (JobFailure, JobTimeout) as failure:
        if deliver:
            _deliver(failure.result, stdout_spec, stderr_spec)
        raise
    finally:
        if _JOBS_PID != os.getpid():
            job.runtime_context.close()
    cache_note["exit_code"] = result.exit_code
    check_outputs(getattr(func, "__name__", "bash_app"), kwargs.get("outputs") or [])
    return result.exit_code


def _check_streams(job: CommandLineJob, result: JobResult, submitted: Dict[str, Any]) -> None:
    """Fail the job if it names a stream otherwise than its submission did."""
    for stream, name in submitted.items():
        path = getattr(result, f"{stream}_path")
        if path != (os.path.join(result.outdir, name) if name else None):
            actual = os.path.relpath(path, result.outdir) if path else None
            raise UnsupportedRequirement(
                f"job {job.tool.job_name!r}: {stream} is {actual!r} once the job "
                f"runs but was named {name!r} at submission, where an upstream File has "
                "only the fields its path gives")


def _deliver(result: JobResult, stdout_spec: Any, stderr_spec: Any) -> None:
    """Put a job's files where the call named them: each stream at
    the call's ``stdout=`` / ``stderr=`` redirection, every other file (so
    every collected output) at its path relative to the job's directory,
    under the working directory: moved when nothing links to it
    (:func:`_moved`), else copied."""
    streams = {os.path.normpath(path) for path in (result.stdout_path, result.stderr_path)
               if path}
    _deliver_tree(result.outdir, os.curdir, streams)
    for path, spec in ((result.stdout_path, stdout_spec), (result.stderr_path, stderr_spec)):
        if path is None:
            continue
        spec = os.path.relpath(path, result.outdir) if spec is None else spec
        if isinstance(spec, tuple) or not _moved(path, os.fspath(spec)):
            # Opened as a run opens a redirection (parents made, truncated or
            # appended to as its mode says), with the job's stream copied in.
            with _open_std_stream(spec) as handle, open(path, "rb") as body:
                shutil.copyfileobj(body, handle.buffer)


def _deliver_tree(directory: str, destination: str, streams: Set[str]) -> None:
    """Every regular file under ``directory`` but the ``streams``, and every
    directory, to the same relative path under ``destination``."""
    with os.scandir(directory) as entries:
        for entry in entries:
            target = os.path.join(destination, entry.name)
            if entry.is_dir(follow_symlinks=False):
                os.makedirs(target, exist_ok=True)
                _deliver_tree(entry.path, target, streams)
            elif (entry.is_file() and entry.path not in streams
                  and not _moved(entry.path, target)):
                stage_file(entry.path, target, prefer_copy=True)


def _moved(path: str, destination: str) -> bool:
    """Rename ``path`` to ``destination`` if it is a regular file nothing
    else links to (the job stored nothing in the cache), so no file of the
    working directory shares an inode with the job cache; whether it was."""
    status = os.lstat(path)
    if status.st_nlink != 1 or not stat.S_ISREG(status.st_mode):
        return False
    try:
        os.replace(path, destination)
        return True
    except OSError:
        return False  # another device or a missing parent


def resilient_bash_executor(func: Any, *args: Any, **kwargs: Any) -> int:
    """The executor every ``CWLApp`` invocation is submitted through: retries
    and fault injection around :func:`cached_bash_executor`.

    The Parsl engines' one retry loop, run where the job runs: the same
    :func:`~repro.cwl.retry.execute_with_retries` loop the runner engines use
    wraps the whole cache-layer call, so injected faults fire *before* the
    execution-side cache probe and every re-attempt re-opens (and truncates)
    the stdout/stderr redirections; without ``cwl_retry_policy`` it makes a
    single call.  A timed-out attempt raises
    :class:`~repro.cwl.errors.JobTimeout` from the launcher itself, as on the
    runner engines.  Retries are appended to the in-process
    ``cwl_retry_note`` list for :func:`report_finished`.
    """
    kwargs = dict(kwargs)
    policy = kwargs.pop("cwl_retry_policy", None)
    plan = kwargs.pop("cwl_fault_plan", None)
    retry_note = kwargs.pop("cwl_retry_note", None)
    job_name = kwargs.get("cwl_job_name") or getattr(func, "__name__", "<tool>")

    def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
        if retry_note is not None:
            retry_note.append({"attempt": attempt_no, "error": str(exc),
                               "delay_s": delay})

    return execute_with_retries(lambda _n: cached_bash_executor(func, *args, **kwargs),
                                policy=policy, job=job_name,
                                fault_plan=plan, on_retry=on_retry)


def report_finished(future: Optional[AppFuture], observer: Any, token: Any,
                    error: Optional[BaseException] = None) -> None:
    """Report how one ``CWLApp`` invocation ended (``error`` ``None``: it succeeded).

    The one routine both Parsl entry points report a job through: each entry
    of the future's ``cwl_retry_note`` becomes a ``"retry"`` event, then the
    ``"end"`` event gets the final attempt and, from the ``cwl_cache_note``,
    the tool, key, cache outcome and exit code, which a journalling observer
    (:class:`~repro.api.events.EventRecorder`) writes as the ``job`` record.
    ``future`` is ``None`` when the call failed before submitting.  On
    process-based executors both notes stay empty: nothing is observed.
    """
    if observer is None:
        return
    retries = getattr(future, "cwl_retry_note", None) or []
    for entry in retries:
        observer.job_retry(token, entry["attempt"], error=entry["error"],
                           delay_s=entry["delay_s"])
    note = getattr(future, "cwl_cache_note", None) or {}
    observer.job_finished(token, ok=error is None,
                          error=None if error is None else str(error),
                          cache=note.get("cache"), attempt=len(retries) + 1,
                          tool=note.get("tool"), key=note.get("key"),
                          exit_code=note.get("exit_code"))


class CWLApp:
    """A CWL CommandLineTool callable as a Parsl app."""

    def __init__(
        self,
        cwl_file: Union[str, os.PathLike, CommandLineTool],
        data_flow_kernel: Optional[DataFlowKernel] = None,
        executors: Union[str, Sequence[str], None] = "all",
        runtime_context: Optional[RuntimeContext] = None,
    ) -> None:
        if isinstance(cwl_file, CommandLineTool):
            self.tool = cwl_file
            self.cwl_path = cwl_file.source_path
        else:
            self.cwl_path = os.fspath(cwl_file)
            self.tool = load_tool(self.cwl_path)
        #: The run options.  The context itself (lock, live-process set,
        #: journal handle) never crosses an executor boundary:
        #: :meth:`__call__` unpacks the fields the execution side needs into
        #: plain, picklable ``cwl_*`` app kwargs.
        self.runtime_context = runtime_context or RuntimeContext()
        ensure_valid(self.tool)
        _TOOLS[id(self.tool.raw)] = self.tool
        self.data_flow_kernel = data_flow_kernel
        self.executor_label = executors if isinstance(executors, str) or executors is None \
            else (executors[0] if executors else "all")
        if self.executor_label is None:
            self.executor_label = "all"
        self._inline_python = extract_inline_python(self.tool)
        #: Whether a file name of this tool is an expression: only then does a
        #: call build the inputs and runtime its names are evaluated on.
        self._names_are_expressions = "$" in repr([self.tool.stdout, self.tool.stderr] + [
            param.output_binding.glob for param in self.tool.outputs if param.output_binding])
        self.__name__ = self.tool.id or os.path.basename(self.cwl_path or "cwl_app")
        self.__doc__ = self.tool.doc or f"CWLApp wrapping {self.__name__}"

    # ------------------------------------------------------------- introspection

    @property
    def input_names(self) -> List[str]:
        """Names of the tool's declared inputs (the valid keyword arguments)."""
        return [param.id for param in self.tool.inputs]

    @property
    def output_names(self) -> List[str]:
        """Names of the tool's declared outputs."""
        return [param.id for param in self.tool.outputs]

    @property
    def required_inputs(self) -> List[str]:
        """Inputs that must be supplied at call time."""
        return [param.id for param in self.tool.inputs
                if not (param.type.is_optional or param.has_default)]

    def describe(self) -> Dict[str, Any]:
        """A summary of the imported tool (used by examples and the CLI)."""
        return {
            "id": self.tool.id,
            "baseCommand": self.tool.base_command,
            "inputs": {p.id: str(p.type) for p in self.tool.inputs},
            "outputs": {p.id: str(p.type) for p in self.tool.outputs},
            "stdout": self.tool.stdout,
            "inline_python": bool(self._inline_python),
            "source": self.cwl_path,
        }

    # ------------------------------------------------------------------ calling

    def __call__(self, **kwargs: Any) -> AppFuture:
        """Invoke the tool through Parsl; returns an :class:`AppFuture`.

        Keyword arguments are the tool's declared inputs; additionally the Parsl
        conventions ``stdout=``, ``stderr=`` override the tool's redirections
        and any unknown keyword raises immediately; the private ``_node=``
        context of a run's node gives the job its directory (its
        ``job_dir``), which the call's file names and ``runtime.outdir`` are
        then under, and its run's spawn environment.  Whatever the options, the
        app is submitted through one chain: :func:`resilient_bash_executor` →
        :func:`cached_bash_executor` → :func:`cwl_tool_command`, one
        :class:`~repro.cwl.job.CommandLineJob` attempt per try.
        """
        dfk = self.data_flow_kernel or DataFlowKernelLoader.dfk()

        overrides = {stream: kwargs.pop(stream, None) for stream in ("stdout", "stderr")}
        node = kwargs.pop("_node", None)
        job_dir = node.job_dir if node is not None else None

        declared = set(self.input_names)
        unknown = [key for key in kwargs if key not in declared]
        if unknown:
            raise InputValidationError(
                f"unknown input(s) {sorted(unknown)} for CWL tool {self.__name__!r}; "
                f"declared inputs are {sorted(declared)}"
            )
        missing = [name for name in self.required_inputs if name not in kwargs]
        if missing:
            raise InputValidationError(
                f"missing required input(s) {sorted(missing)} for CWL tool {self.__name__!r}"
            )

        # Convert values: File-typed inputs given as paths become Parsl Files;
        # DataFutures and Files pass straight through (dependencies / staging).
        cwl_inputs = {param.id: _to_parsl_value(kwargs[param.id], param.type.is_file)
                      for param in self.tool.inputs if param.id in kwargs}
        self._validate_concrete_inputs(cwl_inputs)

        # The call's files are named here, by the rules the job follows, so
        # that they can be DataFutures; the job checks the streams it was not
        # given (``cwl_streams``).
        names_context = {"inputs": {}, "runtime": {}, "self": None}
        if self._names_are_expressions:
            names_context.update(inputs=job_order_view(self.tool, cwl_inputs),
                                 runtime=_job_runtime(self.runtime_context, self.tool, job_dir))
        evaluator = precompile_process(self.tool)
        streams = {stream: stream_redirect(self.tool, stream, names_context, evaluator)
                   for stream, override in overrides.items() if not override}
        directory = job_dir or ""
        redirects = {**overrides, **{stream: name and os.path.join(directory, name)
                                     for stream, name in streams.items()}}
        named_outputs = self._output_files(names_context, evaluator, redirects, directory)
        output_files = [file_obj for _name, file_obj in named_outputs]

        # The one place the context is unpacked for the execution side.  An
        # absent option travels as None: no store, no retry policy.  The
        # notes are filled there and read off the future (report_finished).
        context = self.runtime_context
        cache = context.get_job_cache()
        cache_note: Dict[str, Any] = {"tool": self.tool.id}
        retry_note: List[Dict[str, Any]] = []
        # The job name every engine gives the tool, so FaultSpecs and backoff
        # schedules see the same job everywhere.
        app_kwargs: Dict[str, Any] = {
            "cwl_inputs": cwl_inputs, "cwl_job_name": self.tool.job_name,
            "cwl_cache_dir": cache.cache_dir if cache is not None else None,
            "cwl_cache_note": cache_note, "cwl_retry_note": retry_note,
            "cwl_streams": streams, "cwl_job_dir": job_dir,
            "cwl_run_environment": node.run_environment if node is not None else None}
        for name in (*_CONTEXT_FIELDS, "retry_policy", "fault_plan"):
            app_kwargs[f"cwl_{name}"] = getattr(context, name)
        app_kwargs.update((stream, path) for stream, path in redirects.items() if path)
        if output_files:
            app_kwargs["outputs"] = output_files

        body = functools.partial(cwl_tool_command, self.tool.raw, self.cwl_path)
        functools.update_wrapper(body, cwl_tool_command)
        body.__name__ = self.__name__  # type: ignore[attr-defined]
        wrapped = functools.partial(resilient_bash_executor, body)
        functools.update_wrapper(wrapped, body)
        _open_jobs(dfk)

        future = dfk.submit(
            wrapped,
            (),
            app_kwargs,
            app_type="bash",
            executor_label=self.executor_label,
        )
        # Attach a name -> DataFuture mapping so callers (and the workflow
        # bridge) can look up outputs by their CWL output id rather than index.
        named: Dict[str, DataFuture] = {}
        for (name, _file_obj), data_future in zip(named_outputs, future.outputs):
            named.setdefault(name, data_future)
        future.cwl_outputs = named  # type: ignore[attr-defined]
        future.cwl_cache_note = cache_note  # type: ignore[attr-defined]
        future.cwl_retry_note = retry_note  # type: ignore[attr-defined]
        return future

    # ----------------------------------------------------------------- helpers

    def _validate_concrete_inputs(self, cwl_inputs: Dict[str, Any]) -> None:
        """Fail fast on concrete values that cannot match the declared type."""
        for param in self.tool.inputs:
            if param.id not in cwl_inputs:
                continue
            value = cwl_inputs[param.id]
            if isinstance(value, (DataFuture, File)) or (
                isinstance(value, list) and any(isinstance(v, (DataFuture, File)) for v in value)
            ):
                continue  # resolved and staged later
            if param.type.is_file:
                continue
            if not matches(value, param.type):
                raise InputValidationError(
                    f"input {param.id!r} value {value!r} does not match declared type {param.type}"
                )

    def _output_files(self, context: Dict[str, Any], evaluator: Any,
                      redirects: Dict[str, Optional[str]], directory: str) -> List[tuple]:
        """``(output_id, File)`` for every output file named before the job
        runs: each stream output's redirection, each wildcard-free glob
        (under ``directory``)."""
        named: List[tuple] = []
        for param in self.tool.outputs:
            if param.raw_type in redirects:
                named.append((param.id, File(redirects[param.raw_type])))
            elif param.output_binding is not None and param.output_binding.glob is not None:
                patterns = evaluated_patterns(param.output_binding.glob, evaluator, context)
                named.extend((param.id, File(os.path.join(directory, pattern)))
                             for pattern in patterns if not any(ch in pattern for ch in "*?["))
        return named

    def __repr__(self) -> str:
        return f"<CWLApp {self.__name__!r} from {self.cwl_path!r}>"
