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
* the command line is constructed from the tool's ``baseCommand``, ``arguments``
  and ``inputBinding`` definitions *on the execution side*, after upstream
  DataFutures have resolved, and spawned there with no shell by the runner
  engines' launcher (:func:`~repro.cwl.job.run_process`),
* ``stdout`` / ``stderr`` and every output whose evaluated glob has no
  wildcard become ``DataFuture`` s on the returned ``AppFuture``
  (``future.outputs``), named at submission by the runners' own rules on
  :func:`job_order_view`; a stream the job then names differently fails it,
* if the tool carries an ``InlinePythonRequirement``, its per-input ``validate:``
  expressions run before the command executes and its expression library is
  available to ``arguments`` entries written in the paper's f-string syntax.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import subprocess
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.inline_python import InlinePythonEvaluator, extract_inline_python, is_python_expression
from repro.cwl.command_line import CommandLineParts, build_command_line, fill_in_defaults, stream_redirect
from repro.cwl.errors import InputValidationError, UnsupportedRequirement, ValidationException
from repro.cwl.expressions.compiler import precompile_process
from repro.cwl.job import run_process
from repro.cwl.jobcache import (
    CacheEntry,
    JobCache,
    canonical_command,
    get_job_cache,
    relative_to_outdir,
    resolve_job_cache,
)
from repro.cwl.loader import load_document, load_tool
from repro.cwl.outputs import evaluated_patterns, matching_files, output_globs
from repro.cwl.retry import execute_with_retries
from repro.cwl.runtime import RuntimeContext
from repro.cwl.schema import CommandLineTool
from repro.cwl.types import build_file_value, coerce_file_inputs, file_value_of_path, matches
from repro.cwl.validate import ensure_valid
from repro.parsl.apps.bash import _open_std_stream, check_outputs, register_command, unregister_command
from repro.parsl.data_provider.files import File
from repro.parsl.errors import BashExitFailure
from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader
from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.utils.environment import subprocess_environment

__all__ = ["CWLApp", "ToolCommand", "cwl_tool_command",
           "cached_bash_executor", "resilient_bash_executor", "report_finished"]

#: The :class:`RuntimeContext` fields a job runs under, sent to the execution
#: side as ``cwl_<field>`` app kwargs.
_CONTEXT_FIELDS = ("cores", "ram_mb", "env")


class ToolCommand(NamedTuple):
    """A job to run: its command line, the variables it adds to the process
    environment (the context's ``env``, then ``EnvVarRequirement``, which
    wins) and the exit codes that count as success."""

    parts: CommandLineParts
    environment: Dict[str, str]
    success_codes: Tuple[int, ...]


def cwl_tool_command(tool_raw: Dict[str, Any], source_path: Optional[str],
                     cwl_inputs: Dict[str, Any],
                     **_parsl_kwargs: Any) -> Union[CacheEntry, ToolCommand]:
    """Execution-side body of a CWLApp: what :func:`cached_bash_executor` runs.

    Receives the raw tool document plus the resolved CWL input values (Parsl has
    already replaced DataFutures with Files by the time this runs), rebuilds the
    tool model, runs InlinePython validation, evaluates InlinePython arguments,
    and returns the :class:`ToolCommand` to spawn, argv and all: no shell
    string.

    The job runs under a context carrying the caller's ``cores``, ``ram_mb``
    and ``env`` (``cwl_cores`` / ``cwl_ram_mb`` / ``cwl_env``), so
    ``$(runtime.*)``, the job's environment and the job-cache key are what
    the runner engines would use.  With a job cache attached
    (``cwl_cache_dir`` — inputs are concrete on the execution side, which is
    what makes this the Parsl path's one cache probe; its key and outcome go
    into ``cwl_cache_note``), a hit builds no command and returns the
    :class:`~repro.cwl.jobcache.CacheEntry` instead; a miss leaves the key, every declared
    output's evaluated glob and the canonical command line in
    ``cwl_cache_ctx`` for the caller to store once the command succeeded.
    A stream named at submission (``cwl_streams``) must be the one the
    command line redirects.
    """
    tool = load_document(dict(tool_raw), base_dir=os.path.dirname(source_path) if source_path else None)
    if not isinstance(tool, CommandLineTool):
        raise ValidationException("CWLApp payload must be a CommandLineTool")

    job_order = job_order_view(tool, cwl_inputs)
    context = RuntimeContext(**{name: _parsl_kwargs[f"cwl_{name}"] for name in _CONTEXT_FIELDS
                                if f"cwl_{name}" in _parsl_kwargs})
    runtime = _job_runtime(context, tool)

    cache_dir = _parsl_kwargs.get("cwl_cache_dir")
    cache_ctx = _parsl_kwargs.get("cwl_cache_ctx")
    cache_note = _parsl_kwargs.get("cwl_cache_note")
    key = None
    if cache_dir:
        cache = get_job_cache(cache_dir)
        key = context.cache_key(tool, job_order)
        entry = cache.lookup(key)
        cache_note.update(key=key, cache="hit" if entry is not None else "miss")
        if entry is not None:
            return entry

    # The Parsl path's expression pipeline is the compiled one; the shared
    # library scope spares each invocation rebuilding the standard library.
    expression_evaluator = precompile_process(tool)

    inline_python = extract_inline_python(tool)
    evaluator: Optional[InlinePythonEvaluator] = None
    if inline_python is not None:
        evaluator = InlinePythonEvaluator(
            expression_lib=inline_python.get("expressionLib", []),
            external_files=inline_python.get("externalPythonFiles", []),
        )
        evaluator.validate_inputs(tool, job_order, runtime)

    # InlinePython arguments evaluate here, in Python.  Each result is one
    # command-line token, used verbatim: the generic (JavaScript-based)
    # builder never scans it for ``$(...)``.
    builder_evaluator = expression_evaluator
    if evaluator is not None and tool.arguments:
        scope = {"inputs": job_order, "runtime": runtime, "self": None}
        builder_evaluator = _WithPythonArguments(expression_evaluator, {
            argument: str(evaluator.evaluate(argument, scope))
            for argument in tool.arguments
            if isinstance(argument, str) and is_python_expression(argument)})

    parts = build_command_line(tool, job_order, runtime, builder_evaluator)
    for stream, submitted in (_parsl_kwargs.get("cwl_streams") or {}).items():
        if getattr(parts, stream) != submitted:
            raise UnsupportedRequirement(
                f"job {tool.job_name!r}: {stream} is {getattr(parts, stream)!r} once the job "
                f"runs but was named {submitted!r} at submission, where an upstream File has "
                "only the fields its path gives")
    if key is not None:
        cache_ctx.update(
            cache_dir=cache_dir, key=key, outdir=runtime["outdir"],
            globs=output_globs(tool, job_order, runtime, expression_evaluator),
            command=canonical_command(parts.argv, parts.stdin, parts.stdout, parts.stderr,
                                      parts.environment, outdir=runtime["outdir"],
                                      tmpdir=runtime["tmpdir"], job_order=job_order))
    return ToolCommand(parts, {**context.env, **parts.environment},
                       tuple(tool.success_codes))


class _WithPythonArguments:
    """The command-line builder's evaluator on a tool with InlinePython
    ``arguments``: each such argument's source maps to its result, already
    evaluated in Python and returned as is; every other string goes to
    ``evaluator``."""

    def __init__(self, evaluator: Any, results: Dict[str, str]) -> None:
        self._evaluator = evaluator
        self._results = results

    def evaluate(self, value: Any, context: Dict[str, Any]) -> Any:
        if isinstance(value, str) and value in self._results:
            return self._results[value]
        return self._evaluator.evaluate(value, context)


def to_cwl_value(value: Any) -> Any:
    """The CWL value a Parsl-side value stands for, through lists and records.

    A :class:`DataFuture` is the File it will be, with only the fields its
    path gives: a file of that name left by an earlier run is not it.
    """
    if isinstance(value, DataFuture):
        return file_value_of_path(value.filepath)
    if isinstance(value, File):
        return build_file_value(value.filepath)
    if isinstance(value, list):
        return [to_cwl_value(item) for item in value]
    if isinstance(value, dict):
        return {key: to_cwl_value(item) for key, item in value.items()}
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


def job_order_view(tool: CommandLineTool, values: Dict[str, Any]) -> Dict[str, Any]:
    """The job order ``tool`` sees for one call's input ``values`` (as
    passed to a :class:`CWLApp` or received by its body): the one view the
    call's file names, command line and collected outputs are evaluated on."""
    job_order = {param.id: to_cwl_value(_to_parsl_value(values[param.id], param.type.is_file))
                 for param in tool.inputs if param.id in values}
    return {key: coerce_file_inputs(value)
            for key, value in fill_in_defaults(tool.inputs, job_order).items()}


def _job_runtime(context: RuntimeContext, tool: CommandLineTool) -> Dict[str, Any]:
    """``runtime`` of a ``CWLApp`` job: the working directory as outdir and
    tmpdir, the cores and RAM the tool's ResourceRequirement is granted."""
    cwd = os.getcwd()
    return context.with_resources(tool).runtime_object(cwd, cwd)


def _replay_hit(cache: JobCache, entry: CacheEntry, stdout_spec: Any, stderr_spec: Any) -> int:
    """Finish a cache hit in process: what running the command would have left.

    Output files are copy-staged into the cwd (it is shared, and a later run
    may rewrite them in place); the recorded stdout/stderr bodies go to
    wherever *this* call redirects those streams, which need not be the name
    they were recorded under.  Returns the recorded exit code, one the tool's
    ``successCodes`` permit: entries are only stored for successful runs.
    """
    stdout_name = entry.stream_name("stdout")
    stderr_name = entry.stream_name("stderr")
    cache.restore(entry, os.getcwd(),
                  exclude=tuple(name for name in (stdout_name, stderr_name) if name),
                  prefer_copy=True)
    _replay_stream(cache.cas_body(entry, stdout_name) if stdout_name else None, stdout_spec)
    _replay_stream(cache.cas_body(entry, stderr_name) if stderr_name else None, stderr_spec)
    return entry.exit_code


def _replay_stream(body: Optional[str], spec: Any) -> None:
    """Leave at a ``path`` / ``(path, mode)`` redirection what a run would have.

    The redirection is opened exactly as a run opens it (parents made,
    truncated or appended to as its mode says) and the recorded body, if
    there is one, copied in; with none the file is left as opening it
    leaves it — empty when new or truncated, which is what a silent
    command leaves behind.
    """
    handle = _open_std_stream(spec)
    if handle is None:
        return
    with handle:
        if body is not None:
            with open(body, "rb") as recorded:
                shutil.copyfileobj(recorded, handle.buffer)


def _run_command(command: ToolCommand, app_name: str, stdout_spec: Any, stderr_spec: Any,
                 timeout_s: Optional[float], job_name: str) -> int:
    """Spawn a missed job's argv in the cwd with the runners' launcher,
    registered in the bash-app module's running-command set (which an
    interrupted Parsl engine reaps); its exit code, or
    :class:`~repro.parsl.errors.BashExitFailure` if not permitted."""
    parts = command.parts
    env = subprocess_environment()
    env.update(command.environment)
    with contextlib.ExitStack() as handles:

        def opened(handle: Any) -> Any:
            return subprocess.DEVNULL if handle is None else handles.enter_context(handle)

        exit_code = run_process(
            parts.argv, register_command, unregister_command, job_name, timeout_s, env=env,
            stdin=opened(open(parts.stdin, "rb") if parts.stdin else None),
            stdout=opened(_open_std_stream(stdout_spec)),
            stderr=opened(_open_std_stream(stderr_spec)))
    if exit_code not in command.success_codes:
        raise BashExitFailure(app_name, exit_code, " ".join(parts.argv))
    return exit_code


def cached_bash_executor(func: Any, *args: Any, **kwargs: Any) -> int:
    """Run one ``CWLApp`` invocation, with the job cache attached.

    Calls the app body (:func:`cwl_tool_command`) with a mutable
    ``cwl_cache_ctx`` injected.  A hit (a cache entry) is finished here, in
    process, with no subprocess: output files restored, recorded streams put
    on this call's ``stdout=`` / ``stderr=``.  A miss (a :class:`ToolCommand`)
    runs under ``cwl_timeout_s``; then the redirections plus every file the
    tool's evaluated output globs match in the cwd are stored under the
    job's key, warming the store for every engine that shares it.  Either
    way every declared output must exist, and the exit code (on a hit, the
    recorded one) is returned and noted in ``cwl_cache_note``.
    """
    ctx: Dict[str, Any] = {}
    kwargs = dict(kwargs, cwl_cache_ctx=ctx)
    stdout_spec = kwargs.pop("stdout", None)
    stderr_spec = kwargs.pop("stderr", None)
    cache_note = kwargs.setdefault("cwl_cache_note", {})
    app_name = getattr(func, "__name__", "bash_app")

    answer = func(*args, **kwargs)
    if isinstance(answer, CacheEntry):
        exit_code = _replay_hit(get_job_cache(kwargs["cwl_cache_dir"]), answer,
                                stdout_spec, stderr_spec)
    else:
        exit_code = _run_command(answer, app_name, stdout_spec, stderr_spec,
                                 kwargs.get("cwl_timeout_s"),
                                 kwargs.get("cwl_job_name") or app_name)
    cache_note["exit_code"] = exit_code
    check_outputs(app_name, kwargs.get("outputs") or [])
    if ctx.get("key"):
        try:
            _store_results(ctx, stdout_spec, stderr_spec, exit_code)
        except Exception:  # caching must never fail a successful job
            pass
    return exit_code


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


def _store_results(ctx: Dict[str, Any], stdout_spec: Any, stderr_spec: Any,
                   exit_code: int) -> None:
    cache = resolve_job_cache(ctx["cache_dir"])
    outdir = ctx["outdir"]

    def spec_path(spec: Any) -> Optional[str]:
        if spec is None:
            return None
        path = os.fspath(spec[0] if isinstance(spec, tuple) else spec)
        return path if os.path.isabs(path) else os.path.join(outdir, path)

    stdout_path = spec_path(stdout_spec)
    stderr_path = spec_path(stderr_spec)
    paths = matching_files(outdir, ctx["globs"])
    paths += [stream for stream in (stdout_path, stderr_path)
              if stream and os.path.isfile(stream)]

    cache.store_files(ctx["key"], outdir, paths,
                      stdout_name=relative_to_outdir(stdout_path, outdir),
                      stderr_name=relative_to_outdir(stderr_path, outdir),
                      exit_code=exit_code, command=ctx["command"])


class CWLApp:
    """A CWL CommandLineTool callable as a Parsl app."""

    def __init__(
        self,
        cwl_file: Union[str, os.PathLike, CommandLineTool],
        data_flow_kernel: Optional[DataFlowKernel] = None,
        executors: Union[str, Sequence[str], None] = "all",
        validate_document: bool = True,
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
        if validate_document:
            ensure_valid(self.tool)
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
        and any unknown keyword raises immediately.  Whatever the options, the
        app is submitted through one chain: :func:`resilient_bash_executor` →
        :func:`cached_bash_executor` → :func:`cwl_tool_command`, then the
        tool's argv is spawned directly, with no shell.
        """
        dfk = self.data_flow_kernel or DataFlowKernelLoader.dfk()

        overrides = {stream: kwargs.pop(stream, None) for stream in ("stdout", "stderr")}

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
                                 runtime=_job_runtime(self.runtime_context, self.tool))
        evaluator = precompile_process(self.tool)
        streams = {stream: stream_redirect(self.tool, stream, names_context, evaluator)
                   for stream, override in overrides.items() if not override}
        redirects = {**overrides, **streams}
        named_outputs = self._output_files(names_context, evaluator, redirects)
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
            "cwl_streams": streams}
        for name in (*_CONTEXT_FIELDS, "retry_policy", "fault_plan", "timeout_s"):
            app_kwargs[f"cwl_{name}"] = getattr(context, name)
        app_kwargs.update((stream, path) for stream, path in redirects.items() if path)
        if output_files:
            app_kwargs["outputs"] = output_files

        body = functools.partial(cwl_tool_command, self.tool.raw, self.cwl_path)
        functools.update_wrapper(body, cwl_tool_command)
        body.__name__ = self.__name__  # type: ignore[attr-defined]
        wrapped = functools.partial(resilient_bash_executor, body)
        functools.update_wrapper(wrapped, body)

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
                      redirects: Dict[str, Optional[str]]) -> List[tuple]:
        """``(output_id, File)`` for every output file named before the job
        runs: each stream output's redirection, each wildcard-free glob."""
        named: List[tuple] = []
        for param in self.tool.outputs:
            if param.raw_type in redirects:
                named.append((param.id, File(redirects[param.raw_type])))
            elif param.output_binding is not None and param.output_binding.glob is not None:
                named.extend((param.id, File(pattern)) for pattern in evaluated_patterns(
                    param.output_binding.glob, evaluator, context)
                    if not any(ch in pattern for ch in "*?["))
        return named

    def __repr__(self) -> str:
        return f"<CWLApp {self.__name__!r} from {self.cwl_path!r}>"
