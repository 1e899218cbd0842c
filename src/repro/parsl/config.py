"""The top-level :class:`Config` object for the Parsl-like library.

A ``Config`` bundles together the executors to start, retry/memoization policy,
checkpointing behaviour, staging providers and the run directory.  It is
deliberately declarative: constructing a Config has no side effects; resources
are only acquired when the config is passed to :func:`repro.parsl.load`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.parsl.errors import ConfigurationError
from repro.parsl.executors.threads import ThreadPoolExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsl.data_provider.staging import Staging
    from repro.parsl.executors.base import ParslExecutor


_VALID_CHECKPOINT_MODES = (None, "manual", "dfk_exit", "task_exit")


@dataclass
class Config:
    """Declarative description of a Parsl runtime.

    Parameters
    ----------
    executors:
        The executors to start.  Labels must be unique.
    retries:
        Number of automatic retries for failed tasks (0 = fail immediately).
    app_cache:
        Enable the memoizer (apps must additionally opt in with ``cache=True``).
    checkpoint_mode:
        ``None``, ``"manual"``, ``"dfk_exit"`` or ``"task_exit"``.
    checkpoint_files:
        Previously written checkpoint files to pre-load into the memoizer.
    run_dir:
        Base directory under which numbered run directories are created.
    staging_providers:
        Data staging providers; defaults to local no-op staging.
    monitoring:
        Enable the monitoring hub (task events written to the run directory).
    strategy:
        Block scaling strategy for executors that use providers: ``"none"``
        (static ``init_blocks``) or ``"simple"`` (scale toward outstanding work).
    """

    executors: List["ParslExecutor"] = field(default_factory=list)
    retries: int = 0
    app_cache: bool = True
    checkpoint_mode: Optional[str] = None
    checkpoint_files: Sequence[str] = ()
    run_dir: str = "runinfo"
    staging_providers: Optional[List["Staging"]] = None
    monitoring: bool = False
    strategy: str = "simple"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.checkpoint_mode not in _VALID_CHECKPOINT_MODES:
            raise ConfigurationError(
                f"checkpoint_mode must be one of {_VALID_CHECKPOINT_MODES}, got {self.checkpoint_mode!r}"
            )
        if self.strategy not in ("none", "simple"):
            raise ConfigurationError(f"strategy must be 'none' or 'simple', got {self.strategy!r}")

    @classmethod
    def default(cls) -> "Config":
        """A single-node thread-pool configuration (Parsl's implicit default)."""
        return cls(executors=[ThreadPoolExecutor(label="threads", max_threads=8)])
