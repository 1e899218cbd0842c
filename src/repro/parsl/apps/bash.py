"""Execution-side wrapper for bash apps.

A bash app's Python body returns a command-line string; the wrapper below runs
that command in a subshell on the executor side, wiring ``stdout`` / ``stderr``
kwargs to files and translating non-zero exit codes into
:class:`~repro.parsl.errors.BashExitFailure`.  It is a module-level function so
that it can be serialized by reference and shipped to worker processes.

Each command leads its own session, as the CWL runners' jobs do, so
signalling it reaches its whole process group.  A bash app belongs to no CWL
run, so each call reads ``os.environ`` when it spawns, as Parsl's bash apps
do: a variable set between two calls reaches the second.  Like a run's
tools, the command inherits the process's environment (``env=None``) when
pinning the package onto ``PYTHONPATH`` would change nothing
(:func:`~repro.utils.environment.inherited_or_pinned`).
"""

from __future__ import annotations

import os
import subprocess
from typing import Any, Callable, List, Tuple, Union

from repro.parsl.errors import AppBadFormatting, BashAppNoReturn, BashExitFailure, MissingOutputs
from repro.utils.environment import inherited_or_pinned

StdSpec = Union[None, str, Tuple[str, str]]

def check_outputs(app_name: str, declared_outputs: List[Any]) -> None:
    """Raise :class:`MissingOutputs` unless every declared output file exists."""
    paths = [f.filepath if hasattr(f, "filepath") else str(f) for f in declared_outputs]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise MissingOutputs(app_name, missing)


def _open_std_stream(spec: StdSpec):
    """Open a stdout/stderr specification: a path, or a ``(path, mode)`` tuple."""
    if spec is None:
        return None
    if isinstance(spec, tuple):
        path, mode = spec
    else:
        path, mode = spec, "w"
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, mode)


def remote_side_bash_executor(func: Callable, *args: Any, **kwargs: Any) -> int:
    """Run a bash app: evaluate its body to a command string and execute it.

    Returns 0 on success (mirroring Parsl, where the AppFuture of a bash app
    resolves to the unix exit code of the command, which must be zero).
    """
    app_name = getattr(func, "__name__", "bash_app")

    stdout_spec: StdSpec = kwargs.pop("stdout", None)
    stderr_spec: StdSpec = kwargs.pop("stderr", None)
    # inputs/outputs stay visible to the app body (they are part of Parsl's API),
    # but we keep a copy to verify declared outputs afterwards.
    declared_outputs = kwargs.get("outputs") or []

    try:
        command = func(*args, **kwargs)
    except TypeError as exc:
        # Signature mismatches are formatting errors; anything else the body
        # raises (e.g. CWL input validation failures) propagates unchanged so
        # callers can handle the original exception type.
        raise AppBadFormatting(
            f"bash app '{app_name}' raised while building its command: {exc}"
        ) from exc

    if not isinstance(command, str):
        raise BashAppNoReturn(app_name, command)

    stdout_handle = _open_std_stream(stdout_spec)
    stderr_handle = _open_std_stream(stderr_spec)
    try:
        proc = subprocess.Popen(
            command,
            shell=True,
            executable="/bin/bash" if os.path.exists("/bin/bash") else None,
            env=inherited_or_pinned(),
            stdout=stdout_handle if stdout_handle is not None else subprocess.DEVNULL,
            stderr=stderr_handle if stderr_handle is not None else subprocess.DEVNULL,
            start_new_session=True,
        )
        exit_code = proc.wait()
    finally:
        for handle in (stdout_handle, stderr_handle):
            if handle is not None:
                handle.close()

    if exit_code != 0:
        raise BashExitFailure(app_name, exit_code, command)
    check_outputs(app_name, declared_outputs)
    return exit_code
