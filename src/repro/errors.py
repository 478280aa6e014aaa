"""Exception hierarchy for the PID-Comm reproduction.

Every error raised by the library derives from :class:`PidCommError` so
callers can catch library failures with a single except clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class PidCommError(Exception):
    """Base class for all library errors."""


class GeometryError(PidCommError):
    """Invalid DIMM geometry or PE/entangled-group addressing."""


class AllocationError(PidCommError):
    """Buffer or rank-set allocation failed (overlap, out of MRAM, ...)."""


class HypercubeError(PidCommError):
    """Invalid hypercube shape, dimension bitmap, or mapping request."""


class CollectiveError(PidCommError):
    """Invalid collective invocation (sizes, dtype, unsupported op...)."""


class TransferError(PidCommError):
    """Host <-> PIM transfer request is malformed."""


class AppError(PidCommError):
    """Benchmark application configuration or execution error."""


class ReliabilityError(PidCommError):
    """Base class for fault-injection and recovery errors."""

    #: Machine-readable fault class (overridden by subclasses).
    kind = "reliability"


class TransientFault(ReliabilityError):
    """A retryable fault: retrying the operation may succeed."""

    kind = "transient"


class ChecksumError(TransientFault):
    """Transfer integrity check failed (in-flight corruption detected)."""

    kind = "bit_flip"


class TransferDropped(TransientFault):
    """A transfer was dropped (possibly after a partial delivery)."""

    kind = "drop"


class LaunchTimeout(TransientFault):
    """A kernel launch hung past its deadline and was aborted."""

    kind = "timeout"


class RankFailure(ReliabilityError):
    """A rank failed permanently; retrying cannot succeed.

    Recovery requires remapping the virtual hypercube onto the
    surviving ranks (see ``HypercubeManager.without_pes``).
    """

    kind = "rank_failure"

    def __init__(self, message: str, pe_ids: tuple = ()) -> None:
        super().__init__(message)
        #: The dead PEs the failed operation touched.
        self.pe_ids = tuple(pe_ids)


class FaultBudgetExceeded(ReliabilityError):
    """A request burned through its retry/fault budget without succeeding."""

    kind = "budget"

    def __init__(self, message: str, ledger=None) -> None:
        super().__init__(message)
        #: The ``CostLedger`` its failed attempts and backoffs booked.
        self.ledger = ledger


class ServingError(PidCommError):
    """Base class for the multi-tenant serving front-end's errors."""


class AdmissionRejected(ServingError):
    """The admission queue is full and the request could not displace
    anything (its tenant's priority is not above the lowest queued)."""


class RequestShed(ServingError):
    """A queued (not yet dispatched) request was shed to make room for
    higher-priority work under overload."""


class QuotaExceeded(ServingError):
    """The request's per-PE MRAM footprint exceeds its tenant's quota."""


class SessionClosed(ServingError):
    """The tenant session was closed; no further submissions accepted."""
