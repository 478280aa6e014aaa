"""Retry policy: capped exponential backoff with per-request fault budgets.

The engine retries transient faults (checksum mismatches, dropped
transfers, launch timeouts) at whole-collective granularity: the
communicator restores the request's MRAM footprint from a pre-execution
snapshot, waits out a modelled backoff, and re-runs the compiled plan.
Backoff is charged to the ledger's ``retry`` category, so reliability
overhead shows up in the same cost breakdowns as every other phase.

:class:`RetryPolicy` is deliberately tiny and frozen: a policy is part
of a session's configuration, and tests pin exact backoff sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReliabilityError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for one engine session.

    Args:
        max_attempts: Total tries per request (first attempt included).
        backoff_base_s: Modelled wait before the first retry.
        backoff_factor: Multiplier applied per subsequent retry.
        backoff_cap_s: Ceiling on any single backoff wait.
        fault_budget: Max transient faults absorbed per request before
            the engine gives up with
            :class:`~repro.errors.FaultBudgetExceeded`.
    """

    max_attempts: int = 8
    backoff_base_s: float = 1.0e-4
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0e-3
    fault_budget: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReliabilityError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ReliabilityError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ReliabilityError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.fault_budget < 0:
            raise ReliabilityError(
                f"fault_budget must be >= 0, got {self.fault_budget}")

    def backoff(self, failures: int) -> float:
        """Modelled wait after the ``failures``-th consecutive failure.

        ``failures`` is 1-based; the sequence is ``base * factor**(k-1)``
        capped at ``backoff_cap_s``.
        """
        if failures < 1:
            raise ReliabilityError(
                f"failures must be >= 1, got {failures}")
        return min(self.backoff_cap_s,
                   self.backoff_base_s * self.backoff_factor ** (failures - 1))


#: The session default: generous enough that a 1% per-transfer fault
#: rate converges, bounded enough that a dead link fails fast.
DEFAULT_RETRY = RetryPolicy()
