"""A base for exceptions that cross a process boundary.

Pickle rebuilds an exception as ``type(exc)(*exc.args)``, where ``args`` is
what the constructor passed to :class:`Exception`, usually the formatted
message alone.  A class whose constructor takes other parameters
(``BashExitFailure(app_name, exitcode, command)``) then fails to unpickle
with ``TypeError``, or, with compatible parameters, is built again from its
own message and formats it twice.  HTEX returns a task's exception pickled,
a failing bash app's ``BashExitFailure`` included.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


def _rebuild(cls: type, args: Tuple[Any, ...], state: Dict[str, Any]) -> BaseException:
    error = cls.__new__(cls, *args)  # sets ``args``; ``__init__`` is not run
    error.__dict__.update(state)
    return error


class PicklableError(Exception):
    """Pickles as its class, its ``args`` and its attributes, without
    calling the constructor again."""

    def __reduce__(self) -> Tuple[Any, ...]:
        return _rebuild, (type(self), self.args, self.__dict__)
