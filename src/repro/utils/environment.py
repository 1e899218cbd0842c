"""Subprocess environment handling.

CWL tools shipped with the repository invoke the imaging CLI as
``python3 -m repro.imaging.cli ...``.  Jobs execute in per-job working
directories, so a *relative* ``PYTHONPATH`` entry (e.g. the ``PYTHONPATH=src``
of the test command) would no longer resolve from there.  Every runner
therefore builds its subprocess environment through
:func:`subprocess_environment`, which pins the directory that the running
``repro`` package was imported from onto ``PYTHONPATH`` as an absolute path.
A run reads it once, through its :class:`RunEnvironment`, at its first spawn.

A tool *inherits* the process's environment (it is spawned with
``env=None``, and ``subprocess`` encodes nothing) when that is exactly the
environment the run would hand it:

* the pin changes nothing: ``PYTHONPATH`` already holds the package root,
  and only absolute entries;
* the job's defaults (``HOME``, ``TMPDIR``) are already set;
* neither the context's ``env`` nor the tool's ``EnvVarRequirement`` adds a
  variable;
* ``os.environ`` is what it was at the run's first spawn, compared as the
  bytes it holds, without decoding it.

Otherwise the job gets the run's mapping, as it always did: the one read at
the first spawn, with the overlays and defaults applied, so a variable
changed in the middle of a run still does not reach that run's tools.  The
one visible difference: an inheriting tool sees the C-level environment,
which differs from ``os.environ`` only if something called
:func:`os.putenv` / :func:`os.unsetenv` directly; it is what a plain
``subprocess.Popen`` gives.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Mapping, Optional, Tuple


def package_root() -> str:
    """Absolute path of the directory containing the importable ``repro`` package."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def pinned_pythonpath(value: str) -> str:
    """``value`` (a ``PYTHONPATH``) with each entry made absolute and the
    package root first unless it is on it already."""
    root = package_root()
    resolved = [os.path.abspath(p) for p in value.split(os.pathsep) if p]
    if root not in resolved:
        resolved.insert(0, root)
    return os.pathsep.join(resolved)


def subprocess_environment(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """A copy of ``base`` (default ``os.environ``) whose ``PYTHONPATH`` can
    resolve the ``repro`` package from any working directory.

    Copying ``os.environ`` decodes every variable (about 80 µs for 80 of
    them), so a run calls this once, at its first spawn
    (:meth:`RunEnvironment.spawn`).
    """
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = pinned_pythonpath(env.get("PYTHONPATH", ""))
    return env


def inherited_or_pinned() -> Optional[Dict[str, str]]:
    """The ``env=`` of a spawn that belongs to no run (a Parsl bash app):
    ``None``, to inherit ``os.environ`` as it is now, when the pin would
    change nothing, else :func:`subprocess_environment`.  Reads
    ``PYTHONPATH`` alone to decide."""
    current = os.environ.get("PYTHONPATH")
    if current is not None and pinned_pythonpath(current) == current:
        return None
    return subprocess_environment()


class RunEnvironment:
    """The environment one run spawns its tools with:
    :func:`subprocess_environment`, read at the run's first spawn and
    copied for each spawn after it, or inherited (:meth:`popen_env`).

    Every run makes its own (:meth:`~repro.cwl.runtime.RuntimeContext.run_in`),
    so a variable set in ``os.environ`` between two runs reaches the second
    run's tools.  Pickled (to a process-based executor's worker) it travels
    empty and is read again there.
    """

    __slots__ = ("_environ", "_snapshot", "_lock")

    def __init__(self) -> None:
        self._environ: Optional[Dict[str, str]] = None
        #: ``os.environ``'s bytes at the read, when the run's mapping is
        #: exactly them (the pin changed nothing); else ``None``.
        self._snapshot: Optional[Dict[bytes, bytes]] = None
        self._lock = threading.Lock()

    def __reduce__(self) -> Tuple[Any, ...]:
        return (RunEnvironment, ())

    def _read(self) -> Dict[str, str]:
        """The run's mapping, read (with its snapshot) on first use."""
        environ = self._environ
        if environ is None:
            with self._lock:
                if self._environ is None:
                    snapshot = os.environ._data.copy()  # type: ignore[attr-defined]
                    environ = subprocess_environment()
                    # Inheritable when the pin kept PYTHONPATH's bytes and no
                    # variable changed while the mapping was being read.
                    pythonpath = snapshot.get(b"PYTHONPATH")
                    if (pythonpath is not None
                            and os.fsencode(environ["PYTHONPATH"]) == pythonpath
                            and os.environ._data == snapshot):  # type: ignore[attr-defined]
                        self._snapshot = snapshot
                    self._environ = environ
                environ = self._environ
        return environ

    def spawn(self, *overlays: Dict[str, str]) -> Dict[str, str]:
        """A copy of the run's environment with ``overlays`` applied in order."""
        env = self._read().copy()
        for overlay in overlays:
            env.update(overlay)
        return env

    def popen_env(self, *overlays: Dict[str, str],
                  defaults: Mapping[str, str]) -> Optional[Dict[str, str]]:
        """The ``env=`` to spawn a tool with: ``None`` when the process's
        environment is exactly :meth:`spawn` of ``overlays`` with
        ``defaults`` set where unset (see the module docstring), else that
        mapping."""
        environ = self._read()
        if (self._snapshot is not None and not any(overlays)
                and all(name in environ for name in defaults)
                and os.environ._data == self._snapshot):  # type: ignore[attr-defined]
            return None
        env = self.spawn(*overlays)
        for name, value in defaults.items():
            env.setdefault(name, value)
        return env
