"""Retry/timeout/backoff policy for parallel task execution.

A :class:`RetryPolicy` is a frozen, picklable description of how the
executor should treat a failing task: how many extra attempts to give
it, how long to back off between attempts (exponential with jitter
drawn from a *seeded* RNG, so schedules are reproducible), and how
long a single attempt may run before the executor declares it hung.

The policy is deliberately mechanism-free -- it computes delays.
:func:`repro.parallel.executor.sweep_dataset` and the service
dispatcher own their retry loops; this module owns the arithmetic, so
the backoff law is unit-testable without spawning a single process,
with the one failure classifier and failure accounting both loops
share (:func:`classify_failure`, :func:`account_failure`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ErrorCode, ParameterError

__all__ = ["RetryPolicy", "account_failure", "classify_failure"]


def classify_failure(exc: Optional[BaseException], result) -> Tuple[str, str]:
    """Map a failed attempt to ``(error_code, message)``: a raised
    exception is a task failure, anything else a poisoned result."""
    if exc is not None:
        return ErrorCode.TASK_FAILED, f"{type(exc).__name__}: {exc}"
    return (
        ErrorCode.POISONED_RESULT,
        f"worker returned {type(result).__name__} instead of a result",
    )


def account_failure(
    policy: "RetryPolicy", rng, counters, code: str, attempts: int
) -> Optional[float]:
    """Count one failed attempt in the ``resilience.*`` ``counters``
    (``attempts`` made so far, this one included).  Returns the backoff
    before the next attempt, or ``None`` when the budget is spent."""
    counters["failures"].inc()
    if code == ErrorCode.TASK_TIMEOUT:
        counters["timeouts"].inc()
    elif code == ErrorCode.POISONED_RESULT:
        counters["poisoned"].inc()
    if attempts > policy.max_retries:
        counters["exhausted"].inc()
        return None
    counters["retries"].inc()
    delay = policy.delay(attempts, rng)
    counters["backoff"].inc(delay)
    return delay


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor retries failing tasks.

    ``max_retries``
        Extra attempts after the first (0 = fail on first error).
    ``backoff_base``
        Delay before the first retry, in seconds.
    ``backoff_factor``
        Multiplier applied per subsequent retry (exponential).
    ``backoff_max``
        Ceiling on any single delay.
    ``jitter``
        Fraction of each delay that is randomized: the actual delay is
        ``d * (1 - jitter + jitter * u)`` with ``u ~ U[0, 1)`` from the
        policy's seeded RNG.  0 disables jitter entirely.
    ``task_timeout``
        Per-attempt deadline in seconds; ``None`` disables it.  An
        attempt that exceeds the deadline counts as a failure
        (code ``task_timeout``) and is retried like any other.
    ``seed``
        Seed for the jitter RNG (one RNG per sweep, shared by all
        tasks).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    task_timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ParameterError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ParameterError("backoff_factor must be >= 1")
        if self.backoff_max < self.backoff_base:
            raise ParameterError("backoff_max must be >= backoff_base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ParameterError("jitter must be in [0, 1]")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ParameterError("task_timeout must be positive")

    def rng(self) -> random.Random:
        """A fresh jitter RNG seeded with the policy's seed."""
        return random.Random(self.seed)

    def delay(self, retry_index: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``retry_index`` (1-based).

        Deterministic except for the jitter draw; pass the sweep's RNG
        to make the whole schedule a function of the policy seed and
        the draw order.
        """
        if retry_index < 1:
            raise ParameterError("retry_index is 1-based")
        d = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (retry_index - 1),
        )
        if self.jitter > 0.0:
            u = (rng or self.rng()).random()
            d *= (1.0 - self.jitter) + self.jitter * u
        return d

    def total_attempts(self) -> int:
        """First attempt plus retries."""
        return self.max_retries + 1
