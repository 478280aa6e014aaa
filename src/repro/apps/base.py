"""Application harness: communication backends + per-primitive accounting.

Every benchmark application runs against a :class:`CommBackend`, which
decides whether collectives use PID-Comm or the evaluation baseline --
the application code is identical either way (exactly the promise of a
communication *library*).  The harness records a cost ledger per
primitive, which is what the paper's per-application breakdown figures
(4 and 13) plot.

The harness runs on the execution engine: every collective shape an
application issues is compiled once and served from a
:class:`~repro.engine.cache.PlanCache` on every later iteration (BFS
rounds, GNN layers, DLRM batches all repeat their shapes), and an
:class:`~repro.engine.stats.EngineStats` session records plans
compiled vs. cached, bytes moved, and per-category cost; the snapshot
lands in ``AppResult.meta["engine"]``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..baselines.simplepim import baseline_plan
from ..core.collectives import (
    FULL,
    GATHER_SCRATCH,
    REDUCE_SCRATCH,
    CommPlan,
    OptConfig,
    build_plan,
)
from ..core.groups import resolve_dims
from ..core.hypercube import HypercubeManager
from ..dtypes import DataType, INT64, ReduceOp, SUM
from ..engine.cache import PlanCache, bind_payloads
from ..engine.request import ARITHMETIC_PRIMITIVES, PlanKey
from ..engine.result import reduced_vector
from ..engine.stats import EngineStats
from ..hw.timing import CostLedger


class CommBackend(abc.ABC):
    """Builds collective plans; the strategy applications run against."""

    name: str = "abstract"

    @abc.abstractmethod
    def build_plan(self, primitive: str, manager: HypercubeManager,
                   dims: str, total_data_size: int, src: int = 0,
                   dst: int = 0, dtype: DataType = INT64,
                   op: ReduceOp = SUM,
                   payloads: Mapping[int, np.ndarray] | None = None
                   ) -> CommPlan:
        """Compile one collective invocation into a plan."""


class PidCommBackend(CommBackend):
    """Collectives through PID-Comm (optionally at an ablation level)."""

    def __init__(self, config: OptConfig = FULL) -> None:
        self.config = config
        self.name = f"pidcomm[{config.label}]"

    def build_plan(self, primitive, manager, dims, total_data_size,
                   src=0, dst=0, dtype=INT64, op=SUM, payloads=None):
        plan = build_plan(primitive, manager, dims, total_data_size, src,
                          dst, dtype, op, self.config)
        return bind_payloads(plan, payloads)


class BaselineCommBackend(CommBackend):
    """Collectives through the SimplePIM/conventional baseline."""

    name = "baseline"

    def build_plan(self, primitive, manager, dims, total_data_size,
                   src=0, dst=0, dtype=INT64, op=SUM, payloads=None):
        return baseline_plan(primitive, manager, dims, total_data_size,
                             src, dst, dtype, op, payloads)


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
        self.cache = PlanCache()
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def _plan(self, primitive: str, dims: str, total_data_size: int,
              src: int, dst: int, dtype: DataType, op: ReduceOp
              ) -> tuple[CommPlan, bool]:
        """Cached payload-free plan for the invocation; (plan, hit)."""
        key = PlanKey(
            primitive=primitive,
            dims=resolve_dims(self.manager, dims),
            total_data_size=total_data_size, src_offset=src, dst_offset=dst,
            dtype=dtype.name,
            op=op.name if primitive in ARITHMETIC_PRIMITIVES else None,
            variant=self.backend.name,
            topology=self.manager.topology_signature())
        return self.cache.fetch(
            key, lambda: self.backend.build_plan(
                primitive, self.manager, dims, total_data_size, src, dst,
                dtype, op, None))

    def _account(self, primitive: str, plan: CommPlan, ledger: CostLedger,
                 cached: bool) -> None:
        self.ledger.merge(ledger)
        self.per_primitive[primitive] = (
            self.per_primitive.get(primitive, 0.0) + ledger.total)
        self.stats.record_call(primitive, plan, ledger, cached=cached)

    def comm(self, primitive: str, dims: str, total_data_size: int,
             src: int = 0, dst: int = 0, dtype: DataType = INT64,
             op: ReduceOp = SUM,
             payloads: Mapping[int, np.ndarray] | None = None):
        """Run one collective; returns host outputs for rooted primitives."""
        plan, hit = self._plan(primitive, dims, total_data_size, src, dst,
                               dtype, op)
        bound = bind_payloads(plan, payloads if self.functional else None)
        ledger, ctx = bound.run(self.system, functional=self.functional)
        self._account(primitive, plan, ledger, cached=hit)
        if ctx is None:
            return None
        if primitive == "gather":
            return self._typed_outputs(ctx.scratch.get(GATHER_SCRATCH), dtype)
        if primitive == "reduce":
            outputs = ctx.scratch.get(REDUCE_SCRATCH)
            if outputs is None:  # baseline reduce stores under its own key
                outputs = ctx.scratch.get("reduce.out")
            if outputs is None:
                return None
            return {inst: np.asarray(reduced_vector(buf, dtype)).view(
                dtype.np_dtype).reshape(-1)
                for inst, buf in outputs.items()}
        return None

    def comm_cost_only(self, primitive: str, dims: str,
                       total_data_size: int, src: int = 0, dst: int = 0,
                       dtype: DataType = INT64, op: ReduceOp = SUM) -> None:
        """Charge a collective without moving data.

        For transfers whose *content* is kernel-private state the
        simulator keeps host-side (e.g. the scattered adjacency
        slices): the cost is modelled, the bytes are not re-staged.
        """
        plan, hit = self._plan(primitive, dims, total_data_size, src, dst,
                               dtype, op)
        ledger = plan.estimate(self.system)
        self._account(primitive, plan, ledger, cached=hit)

    def _typed_outputs(self, outputs, dtype: DataType):
        if outputs is None:
            return None
        return {inst: np.asarray(buf, dtype=np.uint8).view(dtype.np_dtype)
                for inst, buf in outputs.items()}

    # ------------------------------------------------------------------
    # PE kernels
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
