"""Exception types for the CWL implementation."""

from __future__ import annotations

from typing import List, Optional

from repro.utils.errors import PicklableError


class CWLError(PicklableError):
    """Base class for all CWL errors; each one survives a pickle round trip."""


class ValidationException(CWLError):
    """A document is structurally invalid.

    Collects one or more individual problems so that a validator run can report
    everything wrong with a document at once (matching cwltool's behaviour of
    listing all validation messages).
    """

    def __init__(self, message: str, issues: Optional[List[str]] = None) -> None:
        self.issues = issues or [message]
        super().__init__(message if not issues else message + "\n  - " + "\n  - ".join(issues))


class UnsupportedRequirement(CWLError):
    """A document uses a CWL feature outside the supported subset."""


class ExpressionError(CWLError):
    """An embedded expression failed to parse or evaluate."""


class JavaScriptError(ExpressionError):
    """The mini-JavaScript engine rejected or failed to run an expression."""


class WorkflowException(CWLError):
    """Runtime failure while executing a tool or workflow."""


class JobFailure(WorkflowException):
    """A command-line job exited with a non-zero (non-permitted) code."""

    def __init__(self, tool_id: str, exit_code: int, command: Optional[str] = None) -> None:
        self.tool_id = tool_id
        self.exit_code = exit_code
        self.command = command
        message = f"tool {tool_id!r} failed with exit code {exit_code}"
        if command:
            message += f" (command: {command})"
        super().__init__(message)


class JobTimeout(WorkflowException):
    """A command-line job exceeded its wall-clock deadline and was reaped.

    Raised after the SIGTERM→SIGKILL escalation of the job's process group
    in :func:`~repro.cwl.job.run_process`, on every engine (the asyncio core
    escalates the same way in ``launch_async``).  Timeouts are *transient*
    by definition — a :class:`~repro.cwl.retry.RetryPolicy` retries them.
    """

    def __init__(self, tool_id: str, timeout_s: float) -> None:
        self.tool_id = tool_id
        self.timeout_s = timeout_s
        super().__init__(
            f"tool {tool_id!r} exceeded its wall-clock timeout of {timeout_s:g}s "
            f"and was terminated")


class InjectedFault(JobFailure):
    """A deterministic failure injected by a :class:`~repro.cwl.faults.FaultPlan`.

    Subclasses :class:`JobFailure` so that every engine classifies an injected
    failure exactly like a real non-zero tool exit (``exit_class ==
    "permanentFail"``) — the property the fault-injection differential matrix
    asserts on.
    """

    def __init__(self, tool_id: str, exit_code: int, attempt: int) -> None:
        self.attempt = attempt
        super().__init__(tool_id, exit_code,
                         command=f"<injected fault, attempt {attempt}>")


class OutputCollectionError(WorkflowException):
    """Declared outputs could not be collected after a job ran."""


class InputValidationError(WorkflowException):
    """A job order does not satisfy the tool's input schema (or a ``validate:`` rule)."""


# --------------------------------------------------------------------- classes
#
# The conformance/differential harness (:mod:`repro.testing`) compares *how*
# executions fail across engines, not just whether they fail.  Two levels:
#
# * :func:`error_class` — the most specific stable class name of an exception
#   (``"JobFailure"``, ``"UnsupportedRequirement"``, ...), independent of the
#   engine that raised it.
# * :func:`exit_class` — the coarse conformance outcome every engine must
#   agree on.  Different engines legitimately raise different exception
#   *types* for the same condition (a non-zero tool exit is a
#   :class:`JobFailure` from the runners but a Parsl ``BashExitFailure`` from
#   the bridge); the exit class is the normalisation that makes them
#   comparable.

#: The coarse conformance outcomes of :func:`exit_class`.
EXIT_CLASSES = (
    "success",          # produced outputs
    "permanentFail",    # a tool command exited with a non-permitted code
    "invalid",          # document or job order rejected before execution
    "unsupported",      # feature outside the engine's supported subset
    "expressionError",  # an embedded expression failed to parse or evaluate
    "outputError",      # declared outputs could not be collected
    "workflowError",    # any other runtime workflow failure
    "error",            # anything else (engine/internal errors)
)


def unwrap_failure(exc: BaseException) -> BaseException:
    """Peel engine-level wrappers down to the root failure.

    Parsl resolves a task whose *dependency* failed with a ``DependencyError``
    carrying the underlying exceptions; conformance comparisons care about the
    original failure, so the first dependent exception is followed
    recursively.
    """
    dependents = getattr(exc, "dependent_exceptions", None)
    if dependents:
        return unwrap_failure(dependents[0])
    return exc


def error_class(exc: BaseException) -> str:
    """The most specific stable class name for ``exc``.

    For errors defined in this module the class name itself is the stable
    label; for anything else (engine-specific exceptions) the type name is
    returned unchanged.
    """
    return type(unwrap_failure(exc)).__name__


def exit_class(exc: Optional[BaseException]) -> str:
    """Normalise an execution failure to its engine-independent outcome.

    ``None`` (no failure) maps to ``"success"``.  See :data:`EXIT_CLASSES`.
    """
    if exc is None:
        return "success"
    exc = unwrap_failure(exc)
    # Parsl-side classes, named here rather than imported so this module never
    # depends on repro.parsl.
    parsl_name = type(exc).__name__
    if isinstance(exc, JobFailure) or parsl_name == "BashExitFailure":
        return "permanentFail"
    if isinstance(exc, UnsupportedRequirement):
        return "unsupported"
    if isinstance(exc, ExpressionError):
        return "expressionError"
    if isinstance(exc, OutputCollectionError) or parsl_name == "MissingOutputs":
        return "outputError"
    if isinstance(exc, (ValidationException, InputValidationError)):
        return "invalid"
    if isinstance(exc, WorkflowException):
        return "workflowError"
    return "error"
