"""Executable communication plans.

A collective invocation is compiled into a :class:`CommPlan`: an ordered
list of steps, each of which can both

* ``apply(ctx)`` -- move real bytes through the simulated system
  (functional mode; used by tests, examples, and small runs), and
* ``cost(system)`` -- price itself against the machine parameters
  (analytic mode; used by the paper-scale experiments).

The step is the single source of truth for both, so the test suite can
assert that what a plan *does* is what it *charges for*.

Steps communicate host-side intermediates (gathered buffers, reduced
rows) through the :class:`ExecContext` scratch dictionary, modelling
host memory held across phases of one collective.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from ...hw.arena import ScratchPool
from ...hw.host import SimdCounter
from ...hw.system import DimmSystem
from ...hw.timing import CostLedger


@dataclass
class ExecContext:
    """State threaded through a plan's functional execution."""

    system: DimmSystem
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


class Step(abc.ABC):
    """One phase of a communication plan."""

    @abc.abstractmethod
    def apply(self, ctx: ExecContext) -> None:
        """Execute functionally against the simulated system."""

    @abc.abstractmethod
    def cost(self, system: DimmSystem) -> CostLedger:
        """Modelled cost of this step on ``system``."""

    def lower(self, system: DimmSystem) -> "list | None":
        """Program ops for compiled replay, or None for no lowering.

        Returning None wraps the step in a ``StepOp`` fallback that
        calls :meth:`apply` unchanged; returning a (possibly empty)
        list of :class:`~repro.core.collectives.program.ProgramOp`
        replaces the step during replay.  Lowered ops must reproduce
        ``apply``'s memory effects, scratch outputs and counter charges
        bit-identically (the interpreted path stays the oracle).
        """
        return None

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
    #: ``(params, ledger)`` of the last :meth:`estimate`: a cached plan
    #: is priced once per ``MachineParams``, not once per call.
    _priced: tuple[Any, CostLedger] | None = field(
        default=None, init=False, repr=False, compare=False)

    def execute(self, system: DimmSystem) -> ExecContext:
        """Run functionally; returns the context (host outputs in scratch)."""
        ctx = ExecContext(system=system)
        for step in self.steps:
            step.apply(ctx)
        return ctx

    def estimate(self, system: DimmSystem) -> CostLedger:
        """Price the plan without moving any data.

        Steps are immutable once planned, so the sum is memoised on the
        identity of ``system.params`` (what-if sweeps swap the params
        object); every caller gets its own copy to merge into.
        """
        priced = self._priced
        if priced is None or priced[0] is not system.params:
            ledger = CostLedger()
            for step in self.steps:
                ledger.merge(step.cost(system))
            priced = self._priced = (system.params, ledger)
        return priced[1].copy()

    def run(self, system: DimmSystem, functional: bool = True
            ) -> tuple[CostLedger, ExecContext | None]:
        """Estimate and (optionally) execute; returns (ledger, ctx)."""
        ledger = self.estimate(system)
        ctx = self.execute(system) if functional else None
        return ledger, ctx

    def compile(self, system: DimmSystem):
        """Lower this plan into a replayable compiled program.

        Convenience wrapper around
        :func:`~repro.core.collectives.program.compile_plan` (imported
        lazily: the program module builds on this one).
        """
        from .program import compile_plan
        return compile_plan(self, system)

    def describe(self) -> str:
        """Multi-line plan listing for debugging and docs."""
        lines = [f"CommPlan({self.primitive}, {len(self.steps)} steps)"]
        lines.extend(f"  {i}: {s.describe()}" for i, s in enumerate(self.steps))
        return "\n".join(lines)
