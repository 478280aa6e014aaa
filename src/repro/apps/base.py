"""Application harness: communication backends + per-primitive accounting.

Every benchmark application runs against a :class:`CommBackend`, which
decides whether collectives use PID-Comm or the evaluation baseline --
the application code is identical either way (exactly the promise of a
communication *library*).  The harness records a cost ledger per
primitive, which is what the paper's per-application breakdown figures
(4 and 13) plot.

The harness is an adapter over one :class:`~repro.engine.Communicator`
session whose plans come from the backend: every collective an
application issues is one :class:`~repro.engine.CommRequest` through
:meth:`Communicator.run`, so repeated shapes (BFS rounds, GNN layers,
DLRM batches) hit the session's plan cache and functional runs replay
compiled programs like any other session.  The session's
:class:`~repro.engine.stats.EngineStats` snapshot lands in
``AppResult.meta["engine"]``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..baselines.simplepim import baseline_plan
from ..core.collectives import FULL, CommPlan, OptConfig, build_plan
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, INT64, ReduceOp, SUM
from ..engine.communicator import Communicator
from ..engine.request import CommRequest, NormalizedRequest
from ..engine.session_config import SessionConfig
from ..engine.stats import EngineStats
from ..hw.timing import CostLedger


class CommBackend(abc.ABC):
    """Builds collective plans; the strategy applications run against."""

    name: str = "abstract"

    @abc.abstractmethod
    def build_plan(self, primitive: str, manager: HypercubeManager,
                   dims: str, total_data_size: int, src: int = 0,
                   dst: int = 0, dtype: DataType = INT64,
                   op: ReduceOp = SUM) -> CommPlan:
        """Compile one collective invocation into a payload-free plan."""


class PidCommBackend(CommBackend):
    """Collectives through PID-Comm (optionally at an ablation level)."""

    def __init__(self, config: OptConfig = FULL) -> None:
        self.config = config
        self.name = f"pidcomm[{config.label}]"

    def build_plan(self, primitive, manager, dims, total_data_size,
                   src=0, dst=0, dtype=INT64, op=SUM):
        return build_plan(primitive, manager, dims, total_data_size, src,
                          dst, dtype, op, self.config)


class BaselineCommBackend(CommBackend):
    """Collectives through the SimplePIM/conventional baseline."""

    name = "baseline"

    def build_plan(self, primitive, manager, dims, total_data_size,
                   src=0, dst=0, dtype=INT64, op=SUM):
        return baseline_plan(primitive, manager, dims, total_data_size,
                             src, dst, dtype, op)


class _BackendSession(Communicator):
    """A session whose planner is a :class:`CommBackend`: the one hook
    PID-Comm and the baseline differ in."""

    def __init__(self, manager: HypercubeManager, config: SessionConfig,
                 backend: CommBackend) -> None:
        super().__init__(manager, config)
        self.comm_backend = backend

    def _build_plan(self, req: NormalizedRequest) -> CommPlan:
        return self.comm_backend.build_plan(
            req.primitive, self.manager, req.dims, req.total_data_size,
            req.src_offset, req.dst_offset, req.dtype, req.op)


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    backend: str
    ledger: CostLedger
    #: primitive (or "kernel") -> modelled seconds.
    per_primitive: dict[str, float]
    #: functional outputs for validation (None in analytic runs).
    output: Any = None
    #: free-form run metadata (config echo, iteration counts, ...).
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.ledger.total

    @property
    def comm_seconds(self) -> float:
        """Time in communication (everything except kernels)."""
        return self.seconds - self.per_primitive.get("kernel", 0.0)


class AppHarness:
    """Per-run accounting shared by all applications."""

    def __init__(self, manager: HypercubeManager, backend: CommBackend,
                 functional: bool = True) -> None:
        self.manager = manager
        self.system = manager.system
        self.backend = backend
        self.functional = functional
        self.ledger = CostLedger()
        self.per_primitive: dict[str, float] = {}
        # An analytic harness only ever prices plans: interpreting keeps
        # it from compiling a program per shape just to read a ledger.
        self.session = _BackendSession(manager, SessionConfig(
            functional=functional,
            execution="auto" if functional else "interpreted"), backend)

    @property
    def stats(self) -> EngineStats:
        """The session's instrumentation counters."""
        return self.session.stats

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def _issue(self, functional: bool | None, primitive: str, dims: str,
               total_data_size: int, src: int, dst: int, dtype: DataType,
               op: ReduceOp, payloads=None):
        """One request through the session; books its ledger."""
        result = self.session.run(CommRequest(
            primitive, dims, total_data_size, src_offset=src, dst_offset=dst,
            data_type=dtype, reduction_type=op, payloads=payloads),
            functional)
        self.ledger.merge(result.ledger)
        self.per_primitive[primitive] = (
            self.per_primitive.get(primitive, 0.0) + result.ledger.total)
        return result.host_outputs

    def comm(self, primitive: str, dims: str, total_data_size: int,
             src: int = 0, dst: int = 0, dtype: DataType = INT64,
             op: ReduceOp = SUM,
             payloads: Mapping[int, np.ndarray] | None = None):
        """Run one collective; returns host outputs for rooted primitives."""
        return self._issue(None, primitive, dims, total_data_size, src, dst,
                           dtype, op, payloads)

    def comm_cost_only(self, primitive: str, dims: str,
                       total_data_size: int, src: int = 0, dst: int = 0,
                       dtype: DataType = INT64, op: ReduceOp = SUM) -> None:
        """Charge a collective without moving data.

        For transfers whose *content* is kernel-private state the
        simulator keeps host-side (e.g. the scattered adjacency
        slices): the cost is modelled, the bytes are not re-staged.
        """
        self._issue(False, primitive, dims, total_data_size, src, dst,
                    dtype, op)

    # ------------------------------------------------------------------
    # PE kernels: an analytic charge, and bulk reads/writes of all PEs
    # for the functional body (one load, one batched numpy op, one
    # store per phase)
    # ------------------------------------------------------------------
    def kernel(self, name: str, ops_per_pe: float = 0.0,
               bytes_per_pe: float = 0.0, launches: int = 1) -> None:
        """Charge one PE-kernel phase (PEs run in parallel).

        ``ops_per_pe``/``bytes_per_pe`` should be the *maximum* over PEs
        (the lockstep launch waits for the slowest PE).
        """
        params = self.system.params
        seconds = (params.pe_compute_time(ops_per_pe)
                   + params.pe_stream_time(bytes_per_pe, passes=1) / 2
                   + launches * params.kernel_launch_s)
        self.ledger.add("kernel", seconds)
        self.per_primitive["kernel"] = (
            self.per_primitive.get("kernel", 0.0) + seconds)

    def load(self, buf: int, count: int) -> np.ndarray:
        """Every PE's ``count`` int64 elements at ``buf``, as a matrix.

        Row ``i`` of the ``(P, count)`` result is ``manager.all_pes[i]``
        (virtual-node order, dim 0 fastest).  Like ``read_elements`` it
        is the PEs' own view of their banks, below the fault injector
        (``DimmSystem.peek_rows``), and the copy is the caller's.
        """
        raw = self.system.peek_rows(self.manager.all_pes, buf, count * 8)
        return raw.view(np.int64)

    def store(self, buf: int, matrix: np.ndarray) -> None:
        """Write int64 rows at ``buf``, row ``i`` to ``manager.all_pes[i]``.

        Any shape whose leading axis is ``P`` is flattened per row; a
        1-D array is written whole to every PE.  The inverse of
        :meth:`load` (``DimmSystem.poke_rows``).
        """
        values = np.ascontiguousarray(matrix, dtype=np.int64)
        pes = self.manager.all_pes
        if values.ndim == 1:
            raw = values.view(np.uint8)
            rows = np.broadcast_to(raw, (len(pes), raw.size))
        else:
            rows = values.reshape(len(pes), -1).view(np.uint8)
        self.system.poke_rows(pes, buf, rows)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, app: str, output: Any = None,
               **meta: Any) -> AppResult:
        """Package the accumulated run into an :class:`AppResult`."""
        meta.setdefault("engine", self.stats.snapshot())
        return AppResult(app=app, backend=self.backend.name,
                         ledger=self.ledger,
                         per_primitive=dict(self.per_primitive),
                         output=output, meta=meta)
