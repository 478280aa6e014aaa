"""Executable communication plans.

A collective invocation is compiled into a :class:`CommPlan`: an ordered
list of steps, each of which can both

* ``apply(ctx)`` -- move real bytes through the simulated system
  (functional mode; used by tests, examples, and small runs), and
* ``traffic(geometry)`` -- declare its traffic, the work its
  real-system counterpart does, as :class:`~repro.hw.timing.Term` s
  that ``cost`` prices (analytic mode; the paper-scale experiments).

The step is the single source of truth for both, so the test suite
asserts that what a plan *does* is what it *charges for*
(:func:`~repro.core.collectives.program.traffic_mismatches`).

Steps communicate host-side intermediates (gathered buffers, reduced
rows) through the :class:`ExecContext` scratch dictionary, modelling
host memory held across phases of one collective.  The context also
carries the call's scatter/broadcast payloads, so a plan holds none.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ...errors import CollectiveError, TransferError
from ...hw.arena import ScratchPool
from ...hw.geometry import DimmGeometry
from ...hw.host import SimdCounter
from ...hw.system import DimmSystem
from ...hw.timing import CostLedger, Term, price


@dataclass
class ExecContext:
    """State threaded through a plan's functional execution."""

    system: DimmSystem
    #: The call's scatter/broadcast host buffers (instance -> array),
    #: which host pushes not fed from scratch read through :meth:`source`.
    payloads: Mapping[int, np.ndarray] | None = None
    #: Host-side intermediates keyed by (step-defined) names.
    scratch: dict[str, Any] = field(default_factory=dict)
    #: Register-operation counts accumulated by the host data path.
    simd: SimdCounter = field(default_factory=SimdCounter)
    #: WRAM tiles moved by PE-local kernels.  Both backends charge the
    #: per-PE tile count, so this is backend-invariant by construction
    #: (asserted by ``tests/test_backend_parity.py``).
    wram_tiles: int = 0
    #: Output-row band budget of a compiled replay's banded ops
    #: (``CommProgram.replay(..., tile_bytes=...)``); None replays
    #: each as one band covering every row.
    tile_bytes: int | None = None
    #: Scratch pool streamed bands gather through (None when untiled).
    pool: ScratchPool | None = None
    #: Engine worker pool streamed bands may fan out to (None = serial).
    workers: Any = None
    #: Scratch-pool high-water mark (bytes) of a streamed replay.
    peak_scratch_bytes: int = 0
    #: Content-aware elision: run the fingerprint scan in elidable ops
    #: (set by ``CommProgram.replay(..., elide=True)``; never set on
    #: the interpreted path, which stays the oracle).
    elide: bool = False
    #: Source chunks fingerprint-scanned by elidable ops.
    chunks_scanned: int = 0
    #: Destination chunks whose transfer was skipped (zero-filled or
    #: alias-copied from a byte-identical representative).
    chunks_elided: int = 0
    #: Destination bytes covered by elided chunks.
    elided_bytes: int = 0
    #: Source bytes the fingerprint scans actually touched (prices the
    #: ``elide`` ledger category).
    scan_bytes: int = 0
    #: Modelled transfer bytes the elisions removed from the bus /
    #: staging path (zero rows skip both directions, duplicate rows
    #: skip the gather direction).
    saved_transfer_bytes: int = 0

    def host(self, key: str) -> Any:
        """Host scratch ``key``, which an earlier step must have left."""
        value = self.scratch.get(key)
        if value is None:
            raise CollectiveError(f"no host scratch {key!r}")
        return value

    def source(self, key: str | None, what: str,
               sizes: Sequence[tuple[int, int]]) -> list[np.ndarray]:
        """A host push's buffers as flat bytes, one per ``(instance,
        nbytes)`` of ``sizes``: host scratch ``key``, else the call's
        payloads.  All are checked before the caller writes any, so a
        missing or mis-sized buffer leaves MRAM as it was.
        """
        buffers = self.payloads if key is None else self.host(key)
        if buffers is None:
            raise CollectiveError(f"functional {what} needs payloads")
        out = []
        for instance, nbytes in sizes:
            buf = buffers.get(instance)
            if buf is None:
                raise TransferError(
                    f"{what} has no payload for instance {instance}")
            buf = np.ascontiguousarray(buf).reshape(-1).view(np.uint8)
            if buf.size != nbytes:
                raise TransferError(
                    f"{what} payload of {buf.size}B for instance "
                    f"{instance}, expected {nbytes}B")
            out.append(buf)
        return out


class Step(abc.ABC):
    """One phase of a communication plan."""

    @abc.abstractmethod
    def apply(self, ctx: ExecContext) -> None:
        """Execute functionally against the simulated system."""

    @abc.abstractmethod
    def traffic(self, geometry: DimmGeometry) -> tuple[Term, ...]:
        """The work this step's real-system counterpart does on
        ``geometry``, in ledger order: the one pricing hook."""

    def cost(self, system: DimmSystem) -> CostLedger:
        """:meth:`traffic` priced at ``system``'s machine parameters."""
        return price(self.traffic(system.geometry), system.params)

    def lower(self) -> list:
        """The :class:`~repro.core.collectives.program.ProgramOp` list
        (possibly empty) that replaces this step in compiled replay.

        Lowered ops must reproduce :meth:`apply`'s memory effects,
        scratch outputs and counter charges bit-identically (the
        interpreted path stays the oracle), and their regions cover the
        MRAM bytes :meth:`traffic` prices.  A step with no compiled
        form keeps this default, which raises.
        """
        raise CollectiveError(f"{self.describe()} has no compiled form; "
                              "run its plan with CommPlan.run")

    def describe(self) -> str:
        """Short human-readable label (defaults to the class name)."""
        return type(self).__name__


@dataclass
class CommPlan:
    """An ordered sequence of steps implementing one collective."""

    primitive: str
    steps: list[Step]
    #: Free-form metadata (group count/size, payload bytes, config label).
    meta: dict[str, Any] = field(default_factory=dict)
    #: ``(params, ledger, bus bytes)`` of the last :meth:`estimate`: a
    #: cached plan is priced once per ``MachineParams``, not per call.
    _priced: tuple[Any, CostLedger, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def execute(self, system: DimmSystem,
                payloads: Mapping[int, np.ndarray] | None = None
                ) -> ExecContext:
        """Run functionally, host pushes reading ``payloads``; returns
        the context (host outputs in scratch)."""
        ctx = ExecContext(system=system, payloads=payloads)
        for step in self.steps:
            step.apply(ctx)
        return ctx

    def estimate(self, system: DimmSystem) -> CostLedger:
        """Price the plan without moving any data.

        Steps are immutable once planned, so the sum is memoised on the
        identity of ``system.params`` (what-if sweeps swap the params
        object); every caller gets its own copy to merge into.
        """
        return self._price(system)[1].copy()

    def bus_bytes(self, system: DimmSystem) -> float:
        """Bytes the plan's traffic prices on the bus, memoised with
        :meth:`estimate`'s ledger."""
        return self._price(system)[2]

    def _price(self, system: DimmSystem) -> tuple[Any, CostLedger, float]:
        priced = self._priced
        if priced is None or priced[0] is not system.params:
            ledger = CostLedger()
            bus = 0
            for step in self.steps:
                terms = step.traffic(system.geometry)
                ledger.merge(price(terms, system.params))
                bus += sum(t.amount for t in terms if t.rate == "bus")
            priced = self._priced = (system.params, ledger, bus)
        return priced

    def run(self, system: DimmSystem, functional: bool = True,
            payloads: Mapping[int, np.ndarray] | None = None
            ) -> tuple[CostLedger, ExecContext | None]:
        """Estimate and (optionally) execute; returns (ledger, ctx)."""
        ledger = self.estimate(system)
        ctx = self.execute(system, payloads) if functional else None
        return ledger, ctx

    def compile(self):
        """Lower this plan into a replayable compiled program.

        Convenience wrapper around
        :func:`~repro.core.collectives.program.compile_plan` (imported
        lazily: the program module builds on this one).
        """
        from .program import compile_plan
        return compile_plan(self)

    def describe(self) -> str:
        """Multi-line plan listing for debugging and docs."""
        lines = [f"CommPlan({self.primitive}, {len(self.steps)} steps)"]
        lines.extend(f"  {i}: {s.describe()}" for i, s in enumerate(self.steps))
        return "\n".join(lines)
