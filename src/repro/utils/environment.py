"""Subprocess environment handling.

CWL tools shipped with the repository invoke the imaging CLI as
``python3 -m repro.imaging.cli ...``.  Jobs execute in per-job working
directories, so a *relative* ``PYTHONPATH`` entry (e.g. the ``PYTHONPATH=src``
of the test command) would no longer resolve from there.  Every runner
therefore builds its subprocess environment through
:func:`subprocess_environment`, which pins the directory that the running
``repro`` package was imported from onto ``PYTHONPATH`` as an absolute path.
A run reads it once, through its :class:`RunEnvironment`, and copies it for
each tool it spawns.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional, Tuple


def package_root() -> str:
    """Absolute path of the directory containing the importable ``repro`` package."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def subprocess_environment(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """A copy of ``base`` (default ``os.environ``) whose ``PYTHONPATH`` can
    resolve the ``repro`` package from any working directory.

    Copying ``os.environ`` decodes every variable (about 80 µs for 80 of
    them), so a run calls this once, at its first spawn
    (:meth:`RunEnvironment.spawn`); a Parsl bash app, which belongs to no
    run, calls it at each spawn.
    """
    env = dict(os.environ if base is None else base)
    root = package_root()
    entries = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    resolved = [os.path.abspath(p) for p in entries]
    if root not in resolved:
        resolved.insert(0, root)
    env["PYTHONPATH"] = os.pathsep.join(resolved)
    return env


class RunEnvironment:
    """The environment one run spawns its tools with:
    :func:`subprocess_environment`, read at the run's first spawn and
    copied for each spawn after it.

    Every run makes its own (:meth:`~repro.cwl.runtime.RuntimeContext.run_in`),
    so a variable set in ``os.environ`` between two runs reaches the second
    run's tools.  Pickled (to a process-based executor's worker) it travels
    empty and is read again there.
    """

    __slots__ = ("_environ", "_lock")

    def __init__(self) -> None:
        self._environ: Optional[Dict[str, str]] = None
        self._lock = threading.Lock()

    def __reduce__(self) -> Tuple[Any, ...]:
        return (RunEnvironment, ())

    def spawn(self, *overlays: Dict[str, str]) -> Dict[str, str]:
        """A copy of the run's environment with ``overlays`` applied in order."""
        environ = self._environ
        if environ is None:
            with self._lock:
                if self._environ is None:
                    self._environ = subprocess_environment()
                environ = self._environ
        env = environ.copy()
        for overlay in overlays:
            env.update(overlay)
        return env
