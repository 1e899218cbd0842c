"""Deterministic fault injection.

A :class:`FaultPlan` describes failures to inject into an execution — *which*
jobs fail, *how* (exit code), for *how many* attempts, plus artificial delays
— as a pure function of ``(seed, job name, attempt)``.  Plans are carried on
:class:`~repro.cwl.runtime.RuntimeContext` (and threaded to the Parsl paths)
and consulted by the shared retry loop
(:func:`repro.cwl.retry.retrying`) *before* each attempt, ahead of
any cache probe, so every engine × cache configuration observes
identical injected behaviour.  That is what lets the differential matrix
(:mod:`repro.api.matrix`) treat fault injection as just another axis: under a
deterministic plan the engines must still converge to identical outputs or
identical failure classes.

Jobs are matched by their *tool id* (``fnmatch`` patterns), the one name that
is stable across all four engines; seeded selection (``probability < 1``)
hashes ``(seed, job)`` so the same subset of jobs misbehaves in every run.

Beyond pre-attempt faults the plan can also vandalise durable state —
:meth:`FaultPlan.corrupt_file` bit-flips a produced output,
:meth:`FaultPlan.truncate_cas_body` truncates a content-addressed cache body —
which the cache-degradation tests use to prove the store quarantines damage
instead of replaying it.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cwl.errors import InjectedFault


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: which jobs, what fault, for how many attempts."""

    #: ``fnmatch`` pattern matched against the job's tool id.
    job: str = "*"
    #: ``"fail"`` raises :class:`~repro.cwl.errors.InjectedFault`;
    #: ``"delay"`` sleeps before the attempt runs.
    action: str = "fail"
    #: Exit code carried by the injected failure.
    exit_code: int = 11
    #: Inject on attempts ``1..attempts`` of each invocation; a large value
    #: makes the fault permanent (the job fails however often it retries).
    attempts: int = 1
    #: Seconds to sleep for ``action="delay"``.
    delay_s: float = 0.0
    #: Deterministic sampling: the rule applies to a job exactly when
    #: ``hash(seed, job) < probability`` — ``1.0`` selects every match.
    probability: float = 1.0


@dataclass
class FaultPlan:
    """A seeded, deterministic set of :class:`FaultSpec` rules.

    ``apply(job, attempt)`` is called by the shared retry loop; it either
    returns (no fault), sleeps (delay fault) or raises
    :class:`~repro.cwl.errors.InjectedFault`.  Every injection is recorded in
    :attr:`injected` for assertions.  The decision is stateless — a pure
    function of ``(seed, job, attempt)`` — so concurrent engines, cache modes
    and resumed runs all see the same faults.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    #: ``(job, attempt, action)`` triples, in injection order (thread-safe).
    injected: List[Tuple[str, int, str]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    _sleep: Callable[[float], None] = field(default=time.sleep,
                                            repr=False, compare=False)

    def selection_fraction(self, job: str) -> float:
        """Deterministic ``[0, 1)`` fraction for seeded job selection."""
        digest = hashlib.sha1(f"{self.seed}\x00{job}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _selected(self, spec: FaultSpec, job: str) -> bool:
        if not fnmatch.fnmatch(job, spec.job):
            return False
        if spec.probability >= 1.0:
            return True
        return self.selection_fraction(job) < spec.probability

    def faults_for(self, job: str, attempt: int) -> List[FaultSpec]:
        """The specs that fire for this ``(job, attempt)`` pair."""
        return [spec for spec in self.specs
                if attempt <= spec.attempts and self._selected(spec, job)]

    def delays(self, job: str, attempt: int) -> bool:
        """Whether :meth:`apply` will sleep for this ``(job, attempt)``."""
        return any(spec.action == "delay" and spec.delay_s > 0
                   for spec in self.faults_for(job, attempt))

    def apply(self, job: str, attempt: int) -> None:
        """Inject whatever the plan dictates for this attempt (or nothing)."""
        for spec in self.faults_for(job, attempt):
            with self._lock:
                self.injected.append((job, attempt, spec.action))
            if spec.action == "delay":
                if spec.delay_s > 0:
                    self._sleep(spec.delay_s)
            elif spec.action == "fail":
                raise InjectedFault(job, spec.exit_code, attempt)
            else:
                raise ValueError(f"unknown fault action {spec.action!r}")

    def max_failed_attempts(self, job: str) -> int:
        """Attempts that will fail before ``job`` can succeed (for sizing caps)."""
        return max((spec.attempts for spec in self.specs
                    if spec.action == "fail" and self._selected(spec, job)),
                   default=0)

    # ------------------------------------------------- durable-state vandalism

    @staticmethod
    def corrupt_file(path: str, offset: int = 0) -> None:
        """Bit-flip one byte of ``path`` in place (keeps the size identical)."""
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            if not byte:
                raise ValueError(f"cannot corrupt empty file {path!r}")
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))

    @staticmethod
    def truncate_cas_body(store_dir: str, digest: Optional[str] = None) -> str:
        """Truncate one ``cas/<sha1>`` body in a job-cache store.

        Picks the first body (sorted) when ``digest`` is not given; returns
        the digest that was damaged.
        """
        cas_dir = os.path.join(store_dir, "cas")
        if digest is None:
            bodies = sorted(os.listdir(cas_dir))
            if not bodies:
                raise ValueError(f"no CAS bodies under {cas_dir!r}")
            digest = bodies[0]
        with open(os.path.join(cas_dir, digest), "r+b") as handle:
            handle.truncate(0)
        return digest


# ----------------------------------------------------------------- profiles
#
# Named fault profiles pair a plan with the retry policy that tolerates it —
# the unit the differential matrix and the conformance CLI select by name
# (``--faults transient-all``).  Keeping profiles *named* keeps
# :class:`~repro.api.matrix.MatrixConfig` a frozen, hashable dataclass.

@dataclass(frozen=True)
class FaultProfile:
    """A named (plan factory, retry policy) pair for the matrix axis."""

    name: str
    description: str
    make_plan: Callable[[], FaultPlan]
    policy: "Any"  # RetryPolicy; typed loosely to avoid an import cycle


def _profile_registry() -> Dict[str, FaultProfile]:
    from repro.cwl.retry import RetryPolicy

    return {
        # Every job's first attempt fails with a transient exit code; the
        # paired policy retries it, so every engine converges to success.
        "transient-all": FaultProfile(
            name="transient-all",
            description="first attempt of every job fails with exit 11; "
                        "retried to success",
            make_plan=lambda: FaultPlan(
                specs=(FaultSpec(job="*", action="fail", exit_code=11,
                                 attempts=1),),
                seed=1101),
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01,
                               max_backoff_s=0.05, seed=1101,
                               retryable_exit_codes=(11,)),
        ),
        # A seeded half of the jobs fail their first two attempts; the policy
        # allows three, so the outcome is still success everywhere.
        "flaky-half": FaultProfile(
            name="flaky-half",
            description="seeded ~half of jobs fail attempts 1-2 with exit 7; "
                        "retried to success",
            make_plan=lambda: FaultPlan(
                specs=(FaultSpec(job="*", action="fail", exit_code=7,
                                 attempts=2, probability=0.5),),
                seed=4242),
            policy=RetryPolicy(max_attempts=4, backoff_s=0.01,
                               max_backoff_s=0.05, seed=4242,
                               retryable_exit_codes=(7,)),
        ),
        # Every attempt fails: retries exhaust and every engine must classify
        # the run as permanentFail.
        "fatal-all": FaultProfile(
            name="fatal-all",
            description="every attempt of every job fails with exit 13; "
                        "all engines converge to permanentFail",
            make_plan=lambda: FaultPlan(
                specs=(FaultSpec(job="*", action="fail", exit_code=13,
                                 attempts=10 ** 6),),
                seed=7),
            policy=RetryPolicy(max_attempts=2, backoff_s=0.01,
                               max_backoff_s=0.02, seed=7,
                               retryable_exit_codes=(13,)),
        ),
    }


def fault_profiles() -> Dict[str, FaultProfile]:
    """All named fault profiles (fresh dict; profiles are immutable)."""
    return _profile_registry()


def get_fault_profile(name: str) -> FaultProfile:
    """Look up a named profile; raises ``KeyError`` with the known names."""
    registry = _profile_registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown fault profile {name!r} (known: {known})") from None
