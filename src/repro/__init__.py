"""PID-Comm reproduction: collective communication for PIM-enabled DIMMs.

A faithful functional + analytic reimplementation of *PID-Comm: A Fast
and Flexible Collective Communication Framework for Commodity
Processing-in-DIMM Devices* (ISCA 2024) on a simulated UPMEM-like
substrate.

Quickstart (the session API)::

    from repro import Communicator, DimmSystem, HypercubeManager, SessionConfig

    system = DimmSystem.paper_testbed()
    comm = Communicator(HypercubeManager(system, shape=(32, 32)),
                        SessionConfig(functional=False))
    buf = system.alloc(1 << 12)
    out = system.alloc(1 << 12)
    result = comm.allreduce("11", 1 << 12, src_offset=buf, dst_offset=out,
                            data_type="int64")
    print(f"modelled time: {result.seconds * 1e3:.3f} ms")
    print(result.breakdown)          # per-category modelled seconds

Repeated calls with the same shape reuse the compiled plan
(``comm.stats`` reports hits), and ``comm.submit([...])`` schedules a
batch of independent collectives with overlap-aware pricing.  Many
concurrent callers share one machine through the serving front-end
(:mod:`repro.serving`)::

    server = CollectiveServer(manager, SessionConfig(functional=False))
    session = server.session("tenant-a", priority=2, weight=2.0)
    future = session.submit(CommRequest("allreduce", "11", 1 << 12))

The eight methods of :class:`Communicator` are the paper's Figure-10
calls; ``docs/paper_mapping.md`` maps each C call onto its method.
"""

from .core.collectives import (
    ABLATION_LADDER,
    ALL_PRIMITIVES,
    BASELINE,
    FULL,
    PR_IM,
    PR_ONLY,
    OptConfig,
)
from .core.hypercube import HypercubeManager
from .dtypes import ALL_OPS, ALL_TYPES, dtype_by_name, op_by_name
from .engine import (
    BatchResult,
    CommFuture,
    CommRequest,
    CommResult,
    Communicator,
    EngineStats,
    PlanCache,
    SessionConfig,
)
from .errors import PidCommError
from .serving import CollectiveServer, Session, TenantSpec
from .hw import DimmGeometry, DimmSystem, MachineParams
from .reliability import (
    FAIL_FAST,
    FaultInjector,
    FaultSpec,
    RELIABLE,
    ReliabilityPolicy,
    RetryPolicy,
)

__version__ = "1.3.0"

__all__ = [
    "DimmSystem", "DimmGeometry", "MachineParams", "HypercubeManager",
    "OptConfig", "BASELINE", "PR_ONLY", "PR_IM", "FULL", "ABLATION_LADDER",
    "Communicator", "CommRequest", "CommResult", "CommFuture",
    "BatchResult", "PlanCache", "EngineStats", "SessionConfig",
    "CollectiveServer", "Session", "TenantSpec",
    "FaultInjector", "FaultSpec", "RetryPolicy", "ReliabilityPolicy",
    "RELIABLE", "FAIL_FAST",
    "ALL_PRIMITIVES", "ALL_TYPES", "ALL_OPS",
    "dtype_by_name", "op_by_name", "PidCommError",
]
