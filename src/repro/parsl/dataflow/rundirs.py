"""Run directory management.

Every loaded DataFlowKernel gets a fresh, numbered run directory (``runinfo/000``,
``runinfo/001``, …) holding its logs and its executors' working files — the
same layout Parsl users are used to.
"""

from __future__ import annotations

import os


def make_rundir(base: str = "runinfo") -> str:
    """Create and return the next numbered run directory under ``base``."""
    os.makedirs(base, exist_ok=True)
    existing = []
    for entry in os.listdir(base):
        try:
            existing.append(int(entry))
        except ValueError:
            continue
    next_index = (max(existing) + 1) if existing else 0
    while True:
        candidate = os.path.join(base, f"{next_index:03d}")
        try:
            os.makedirs(candidate)
            return candidate
        except FileExistsError:
            next_index += 1
