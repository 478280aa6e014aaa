"""Multi-host extension (paper section IX-A, Figure 23b).

Rack-scale hierarchical collectives on the compiled engine: each
simulated host runs PID-Comm locally through its own engine session,
and the global phase is a topology-aware inter-host program --
a :class:`Fabric` link graph priced per round, three global-phase
algorithm families (:func:`compile_global`), and a cost-model
:class:`GlobalTuner` choosing per (primitive, payload, topology).
"""

from .fabric import Fabric, Link
from .algorithms import (
    GLOBAL_ALGORITHMS,
    GLOBAL_PRIMITIVES,
    GlobalProgram,
    compile_global,
    default_factors,
    factor_candidates,
)
from .tuning import GlobalTuner
from .hierarchical import (
    MultiHostResult,
    MultiHostSystem,
    multihost_allgather,
    multihost_allreduce,
    multihost_alltoall,
    multihost_reduce_scatter,
)

__all__ = [
    "Fabric", "Link", "GLOBAL_ALGORITHMS", "GLOBAL_PRIMITIVES",
    "GlobalProgram", "compile_global", "default_factors",
    "factor_candidates", "GlobalTuner",
    "MultiHostResult", "MultiHostSystem",
    "multihost_allreduce", "multihost_alltoall",
    "multihost_reduce_scatter", "multihost_allgather",
]
