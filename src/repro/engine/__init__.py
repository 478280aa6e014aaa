"""Session-based execution engine for PID-Comm collectives.

Sits between the public API and ``core/collectives``: the
:class:`Communicator` session -- constructed from one frozen
:class:`SessionConfig` -- compiles each collective shape once (plan
cache, optionally partitioned per tenant), submits batches with
overlap-aware scheduling (:func:`schedule_waves` +
:meth:`CostLedger.merge_concurrent`), and instruments every call
(:class:`EngineStats`).  Many concurrent callers should go through
:mod:`repro.serving` instead of constructing sessions.
"""

from .cache import CachePartition, PartitionKey, PlanCache
from .communicator import Communicator
from .parallel import WorkerPool
from .request import CommRequest, NormalizedRequest, PlanKey
from .result import BatchResult, CommFuture, CommResult
from .scheduler import (WaveCost, assert_wave_safety, price_waves,
                        schedule_waves)
from .session_config import EXECUTION_MODES, SessionConfig
from .stats import EngineStats

__all__ = [
    "Communicator", "CommRequest", "CommResult", "CommFuture",
    "BatchResult", "PlanCache", "CachePartition", "PartitionKey",
    "PlanKey", "EngineStats", "SessionConfig", "EXECUTION_MODES",
    "NormalizedRequest", "WaveCost", "WorkerPool",
    "schedule_waves", "price_waves", "assert_wave_safety",
]
