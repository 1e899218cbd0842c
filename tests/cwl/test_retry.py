"""Unit tests for the shared retry loop (repro.cwl.retry).

The two properties the fault-tolerance layer rests on: schedules are a pure
function of (policy, job, attempt) — byte-identical across runs — and
retryability follows the engine-independent failure classification.
"""

from __future__ import annotations

import pytest

from repro.cwl.errors import (
    ExpressionError,
    InjectedFault,
    JobFailure,
    JobTimeout,
    UnsupportedRequirement,
    ValidationException,
)
from repro.cwl.faults import FaultPlan, FaultSpec
from repro.cwl.retry import (
    NEVER_RETRY_EXIT_CLASSES,
    RetryPolicy,
    execute_with_retries,
    retrying,
)


# ------------------------------------------------------------- determinism

def test_schedule_is_byte_identical_across_instances():
    """Two policies with the same parameters agree delay for delay."""
    make = lambda: RetryPolicy(max_attempts=6, backoff_s=0.1, seed=99)
    first = make().schedule("tools/blast.cwl")
    second = make().schedule("tools/blast.cwl")
    assert first == second
    assert len(first) == 5  # one delay per retry, not per attempt


def test_schedule_varies_with_seed_job_and_attempt():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.1, seed=1)
    other_seed = RetryPolicy(max_attempts=4, backoff_s=0.1, seed=2)
    assert policy.schedule("a") != other_seed.schedule("a")
    assert policy.schedule("a") != policy.schedule("b")
    fractions = {policy.jitter_fraction("a", n) for n in range(1, 5)}
    assert len(fractions) == 4  # attempt number is mixed into the hash
    assert all(0.0 <= f < 1.0 for f in fractions)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=10, backoff_s=1.0, multiplier=2.0,
                         max_backoff_s=4.0, jitter=0.0)
    assert policy.schedule("job") == (1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0)


def test_jitter_bounded_by_fraction():
    policy = RetryPolicy(max_attempts=2, backoff_s=1.0, jitter=0.5)
    delay = policy.delay_s("job", 1)
    assert 1.0 <= delay < 1.5


# ---------------------------------------------------------- retryability

def test_never_retry_exit_classes_are_final():
    policy = RetryPolicy(max_attempts=5, retryable_exit_codes=(1,),
                         retryable_errors=("ValueError",))
    assert NEVER_RETRY_EXIT_CLASSES == {"invalid", "unsupported",
                                        "expressionError"}
    assert not policy.retryable(ValidationException("bad doc"))
    assert not policy.retryable(UnsupportedRequirement("no docker"))
    assert not policy.retryable(ExpressionError("bad js"))


def test_timeout_is_always_retryable():
    assert RetryPolicy().retryable(JobTimeout("job", 5.0))


def test_exit_codes_gate_job_failures():
    policy = RetryPolicy(retryable_exit_codes=(75, 111))
    assert policy.retryable(JobFailure("job", 75))
    assert policy.retryable(InjectedFault("job", 111, 1))
    assert not policy.retryable(JobFailure("job", 1))


def test_error_class_names_gate_plain_exceptions():
    policy = RetryPolicy(retryable_errors=("OSError",))
    assert policy.retryable(OSError("fs hiccup"))
    assert not policy.retryable(RuntimeError("logic bug"))


# ------------------------------------------------------ execute_with_retries

def _no_sleep(_delay):
    pass


def test_attempt_cap_is_enforced():
    calls = []

    def always_fails(attempt):
        calls.append(attempt)
        raise JobFailure("job", 11)

    with pytest.raises(JobFailure):
        execute_with_retries(
            always_fails, job="job", sleep=_no_sleep,
            policy=RetryPolicy(max_attempts=3, retryable_exit_codes=(11,)))
    assert calls == [1, 2, 3]


def test_non_retryable_failures_raise_immediately():
    calls = []

    def invalid(attempt):
        calls.append(attempt)
        raise ValidationException("bad document")

    with pytest.raises(ValidationException):
        execute_with_retries(
            invalid, job="job", sleep=_no_sleep,
            policy=RetryPolicy(max_attempts=5, retryable_errors=("ValueError",)))
    assert calls == [1]


def test_no_policy_means_single_attempt():
    calls = []

    def fails(attempt):
        calls.append(attempt)
        raise JobFailure("job", 11)

    with pytest.raises(JobFailure):
        execute_with_retries(fails, policy=None, job="job", sleep=_no_sleep)
    assert calls == [1]


def test_fault_plan_consulted_before_each_attempt():
    """Faults fire ahead of fn — the 'before any cache probe' invariant."""
    plan = FaultPlan(specs=(FaultSpec(job="job", exit_code=7, attempts=2),))
    ran = []

    def fn(attempt):
        ran.append(attempt)
        return "ok"

    result = execute_with_retries(
        fn, job="job", fault_plan=plan, sleep=_no_sleep,
        policy=RetryPolicy(max_attempts=3, retryable_exit_codes=(7,)))
    assert result == "ok"
    assert ran == [3]  # attempts 1-2 faulted before fn ever ran
    assert [(j, a) for j, a, _ in plan.injected] == [("job", 1), ("job", 2)]


def test_the_loop_yields_before_every_sleep_and_follows_a_yielding_attempt():
    """A delay fault and a backoff are blocking points: the loop yields
    before each, so whoever drives it can move the rest off its thread."""
    slept = []
    plan = FaultPlan(specs=(FaultSpec(job="job", action="delay", delay_s=0.5),
                            FaultSpec(job="job", exit_code=7)),
                     _sleep=slept.append)
    policy = RetryPolicy(max_attempts=2, backoff_s=0.2, jitter=0,
                         retryable_exit_codes=(7,))

    def attempt(n):
        slept.append(f"attempt {n}")
        yield
        return n

    loop = retrying(attempt, policy=policy, job="job", fault_plan=plan,
                    sleep=slept.append)
    next(loop)
    assert slept == []                           # yielded before the delay fault
    next(loop)
    assert slept == [0.5]                        # the fault failed; yielded before backoff
    next(loop)
    assert slept == [0.5, 0.2, "attempt 2"]      # attempt 2 yields where it blocks
    with pytest.raises(StopIteration) as done:
        next(loop)
    assert done.value.value == 2


def test_sleep_receives_the_deterministic_schedule():
    policy = RetryPolicy(max_attempts=3, backoff_s=0.2, seed=5,
                         retryable_exit_codes=(11,))
    slept = []

    def flaky(attempt):
        if attempt < 3:
            raise JobFailure("job", 11)
        return attempt

    execute_with_retries(flaky, policy=policy, job="job", sleep=slept.append)
    assert tuple(slept) == policy.schedule("job")[:2]
