"""Task lifecycle states.

The state machine follows Parsl's:

``unsched -> pending -> launched -> running -> exec_done``

with failure paths into ``failed`` and ``dep_fail`` (a dependency failed so the
task never launched), and ``joining`` (a join app waiting on its inner future).
A failed task is final: re-attempts are decided one layer up, by the run's
:class:`~repro.cwl.retry.RetryPolicy`.
"""

from __future__ import annotations

import enum


class States(enum.IntEnum):
    """Possible states of a task managed by the DataFlowKernel."""

    unsched = 0
    pending = 1
    launched = 2
    running = 3
    exec_done = 4
    failed = 5
    dep_fail = 6
    joining = 9

    @property
    def is_final(self) -> bool:
        return self in FINAL_STATES

    @property
    def is_failure(self) -> bool:
        return self in FINAL_FAILURE_STATES


#: States from which a task will never move again.
FINAL_STATES = frozenset({States.exec_done, States.failed, States.dep_fail})

#: Final states that represent a failure.
FINAL_FAILURE_STATES = frozenset({States.failed, States.dep_fail})
