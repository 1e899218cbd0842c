"""The provider interface.

In the pilot-job model (paper §II-B) an executor does not talk to the batch
scheduler per task; instead it asks a *provider* for a **block** of resources —
one batch job spanning one or more nodes — and runs its own workers inside that
block.  Providers abstract over the resource manager (here: the local machine
and a simulated Slurm cluster), which is what lets the same Parsl program move
from a laptop to a supercomputer by swapping configuration only.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class ProviderJobState(str, enum.Enum):
    """States a provider job (block) can be in."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def is_terminal(self) -> bool:
        return self in (ProviderJobState.COMPLETED, ProviderJobState.FAILED, ProviderJobState.CANCELLED)


@dataclass
class Block:
    """One granted block of resources.

    Attributes
    ----------
    block_id:
        Identifier assigned by the provider (unique within the provider).
    job_id:
        The underlying batch-system job id (or synthetic id for local blocks).
    node_names:
        Names of the nodes granted to this block.
    cores_per_node:
        Cores available on each node of the block.
    metadata:
        Provider-specific extras (queue name, namespace, …).
    """

    block_id: str
    job_id: str
    node_names: List[str]
    cores_per_node: int
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def total_cores(self) -> int:
        return len(self.node_names) * self.cores_per_node


class ExecutionProvider(ABC):
    """Abstract base class for providers."""

    label: str = "provider"

    def __init__(
        self,
        nodes_per_block: int = 1,
        cores_per_node: int = 1,
        init_blocks: int = 1,
        min_blocks: int = 0,
        max_blocks: int = 1,
        walltime: str = "00:30:00",
    ) -> None:
        if nodes_per_block < 1:
            raise ValueError("nodes_per_block must be >= 1")
        if cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if not (min_blocks <= init_blocks <= max_blocks):
            raise ValueError(
                f"block bounds must satisfy min <= init <= max, got "
                f"{min_blocks} <= {init_blocks} <= {max_blocks}"
            )
        self.nodes_per_block = nodes_per_block
        self.cores_per_node = cores_per_node
        self.init_blocks = init_blocks
        self.min_blocks = min_blocks
        self.max_blocks = max_blocks
        self.walltime = walltime

    @staticmethod
    def parse_walltime(walltime: str) -> float:
        """Convert an ``HH:MM:SS`` walltime string into seconds."""
        parts = walltime.split(":")
        if len(parts) != 3:
            raise ValueError(f"walltime must be HH:MM:SS, got {walltime!r}")
        hours, minutes, seconds = (int(p) for p in parts)
        return hours * 3600 + minutes * 60 + seconds

    @abstractmethod
    def submit_block(self, job_name: str = "block") -> Block:
        """Request one block of resources; blocks until the block is usable."""

    @abstractmethod
    def status(self, block: Block) -> ProviderJobState:
        """Current state of a block."""

    @abstractmethod
    def cancel(self, block: Block) -> bool:
        """Release a block.  Returns True if the underlying job was cancelled."""

    def cancel_all(self, blocks: List[Block]) -> None:
        for block in blocks:
            try:
                self.cancel(block)
            except Exception:  # pragma: no cover - defensive cleanup
                pass

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} nodes_per_block={self.nodes_per_block} "
            f"cores_per_node={self.cores_per_node} blocks=[{self.min_blocks},{self.max_blocks}]>"
        )
