"""The top-level :class:`Config` object for the Parsl-like library.

A ``Config`` names the executors to start and the base run directory — the
two things a Parsl runtime needs that a CWL run does not already decide.
Result reuse, resume, retries and per-job events are run options of the CWL
layer (:class:`~repro.cwl.runtime.RuntimeContext`), not kernel settings.  It
is deliberately declarative: constructing a Config has no side effects;
resources are only acquired when the config is passed to
:func:`repro.parsl.load`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.parsl.executors.threads import ThreadPoolExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsl.executors.base import ParslExecutor


@dataclass
class Config:
    """Declarative description of a Parsl runtime.

    Parameters
    ----------
    executors:
        The executors to start.  Labels must be unique.
    run_dir:
        Base directory under which numbered run directories are created.
    """

    executors: List["ParslExecutor"] = field(default_factory=list)
    run_dir: str = "runinfo"

    @classmethod
    def default(cls) -> "Config":
        """A single-node thread-pool configuration (Parsl's implicit default)."""
        return cls(executors=[ThreadPoolExecutor(label="threads", max_threads=8)])
