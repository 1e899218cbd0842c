"""Exception hierarchy for the Parsl-like library.

The names deliberately mirror Parsl's public exceptions so that code written
against Parsl (including the paper's listings) reads naturally against this
re-implementation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.utils.errors import PicklableError


class ParslError(PicklableError):
    """Base class for all errors raised by :mod:`repro.parsl`; each one
    survives a pickle round trip (HTEX returns task errors pickled)."""


class ConfigurationError(ParslError):
    """Raised for invalid :class:`~repro.parsl.config.Config` objects."""


class NoDataFlowKernelError(ParslError):
    """Raised when an app is invoked before ``parsl.load()`` has been called."""

    def __init__(self) -> None:
        super().__init__(
            "Cannot execute apps: no DataFlowKernel is loaded. Call repro.load(config) first."
        )


class DataFlowKernelShutdownError(ParslError):
    """Raised when submitting to a DataFlowKernel that has been cleaned up."""


class AppException(ParslError):
    """Base class for errors raised while executing an app."""


class AppBadFormatting(AppException):
    """Raised when a bash app's command template cannot be formatted."""


class BashExitFailure(AppException):
    """Raised when a bash app's command exits with a non-zero code."""

    def __init__(self, app_name: str, exitcode: int, command: Optional[str] = None) -> None:
        self.app_name = app_name
        self.exitcode = exitcode
        self.command = command
        message = f"bash app '{app_name}' failed with exit code {exitcode}"
        if command:
            message += f" (command: {command!r})"
        super().__init__(message)


class BashAppNoReturn(AppException):
    """Raised when a bash app function does not return a command string."""

    def __init__(self, app_name: str, returned: object) -> None:
        super().__init__(
            f"bash app '{app_name}' must return the command string to execute; got {type(returned).__name__}"
        )


class MissingOutputs(AppException):
    """Raised when an app completes but one or more declared output files are absent."""

    def __init__(self, app_name: str, missing: Sequence[str]) -> None:
        self.missing = list(missing)
        super().__init__(f"app '{app_name}' did not produce declared outputs: {', '.join(missing)}")


class DependencyError(ParslError):
    """Raised (as a task's result) when one of its dependencies failed.

    Carries the task id whose dependencies failed and the underlying reasons so
    that failure chains can be traced through a workflow.
    """

    def __init__(self, dependent_exceptions: List[BaseException], task_id: int) -> None:
        self.dependent_exceptions = dependent_exceptions
        self.task_id = task_id
        reasons = "; ".join(f"{type(e).__name__}: {e}" for e in dependent_exceptions) or "unknown"
        super().__init__(f"Dependency failure for task {task_id}: {reasons}")


class JoinError(ParslError):
    """Raised when the future returned by a join app fails."""

    def __init__(self, dependent_exceptions: List[BaseException], task_id: int) -> None:
        self.dependent_exceptions = dependent_exceptions
        self.task_id = task_id
        reasons = "; ".join(f"{type(e).__name__}: {e}" for e in dependent_exceptions) or "unknown"
        super().__init__(f"Join failure for task {task_id}: {reasons}")


class ExecutorError(ParslError):
    """Base class for executor-level failures."""

    def __init__(self, executor_label: str, message: str) -> None:
        self.executor_label = executor_label
        super().__init__(f"executor '{executor_label}': {message}")


class ScalingFailed(ExecutorError):
    """Raised when a provider cannot supply the resources an executor asked for."""


class SerializationError(ParslError):
    """Raised when a task payload cannot be serialized for remote execution."""

    def __init__(self, what: str, cause: Optional[BaseException] = None) -> None:
        self.cause = cause
        message = f"could not serialize {what}"
        if cause is not None:
            message += f": {cause}"
        super().__init__(message)


class ProviderError(ParslError):
    """Base class for provider failures (submission, cancellation, status)."""


class SubmitException(ProviderError):
    """Raised when a provider fails to submit a block job."""
