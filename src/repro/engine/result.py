"""Results and futures returned by the execution engine.

:class:`CommResult` is the outcome of one collective (what each of
the eight :class:`~repro.engine.Communicator` methods returns).
:class:`CommFuture` and :class:`BatchResult` are what
``Communicator.submit`` hands back: one future per request plus the
batch-level overlap-aware ledger.

The simulator executes eagerly, so futures resolve before ``submit``
returns; the future API exists so calling code is already shaped for a
backend that really runs collectives asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.collectives import CommPlan
from ..dtypes import DataType
from ..errors import PidCommError
from ..hw.host import SimdCounter
from ..hw.timing import CostLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import WaveCost


@dataclass
class CommResult:
    """Outcome of one collective invocation."""

    plan: CommPlan
    ledger: CostLedger
    #: instance -> host output array (rooted primitives only).
    host_outputs: dict[int, np.ndarray] | None = None
    #: True when the plan came from the engine's compilation cache.
    cached: bool = False
    #: Executions attempted before the collective completed (> 1 means
    #: the reliability layer retried after injected/transient faults).
    attempts: int = 1
    #: Fault kinds observed across all attempts, in occurrence order.
    faults_seen: tuple[str, ...] = ()
    #: True when the collective ran on a degraded (remapped) hypercube.
    degraded: bool = False
    #: Register-operation counts from the functional host pass (None
    #: for analytic runs).  Backend-invariant: compiled replay
    #: charges exactly what the interpreter's per-slot kernels would.
    simd: SimdCounter | None = None
    #: WRAM tiles moved by PE-local kernels (0 for analytic runs);
    #: also backend-invariant.
    wram_tiles: int = 0
    #: ``"interpreted"`` (step-by-step ``apply``), ``"compiled"``
    #: (single-dispatch program replay), or ``"streamed"`` (tiled
    #: replay through the scratch pool); bit-identical by construction.
    execution: str = "interpreted"
    #: Payload tiles a streamed replay ran (0 unless streamed).
    tiles: int = 0
    #: Scratch-pool high-water mark of this call's streamed replay, in
    #: bytes: its largest single band's views (at most ~2 tiles: one
    #: pong output band + one fold sliver), the same at any worker
    #: count; ``EngineStats.peak_scratch_bytes`` keeps the session's.
    peak_scratch_bytes: int = 0
    #: Source chunks zero-scanned by content-aware elision
    #: (0 unless the call ran with ``elide_transfers`` on a big-enough
    #: movement op).
    chunks_scanned: int = 0
    #: Destination chunks whose transfer was elided (zero-filled).
    chunks_elided: int = 0
    #: Destination bytes those elided chunks cover.
    elided_bytes: int = 0

    @property
    def seconds(self) -> float:
        """Modelled execution time."""
        return self.ledger.total

    @property
    def breakdown(self) -> dict[str, float]:
        """Per-category modelled seconds (non-zero entries only)."""
        return self.ledger.breakdown()

    def __repr__(self) -> str:
        parts = [f"CommResult({self.plan.primitive}",
                 f"{self.seconds * 1e3:.3f} ms"]
        fractions = self.ledger.fractions()
        if fractions:
            top = sorted(fractions.items(), key=lambda kv: -kv[1])[:3]
            parts.append(" ".join(f"{c}={f:.0%}" for c, f in top))
        if self.host_outputs is not None:
            parts.append(f"{len(self.host_outputs)} host outputs")
        if self.cached:
            parts.append("cached plan")
        if self.execution == "compiled":
            parts.append("compiled replay")
        if self.execution == "streamed":
            parts.append(f"streamed replay ({self.tiles} tiles)")
        if self.chunks_elided:
            parts.append(f"{self.chunks_elided} chunks elided")
        if self.attempts > 1:
            parts.append(f"{self.attempts} attempts")
        if self.faults_seen:
            parts.append(f"faults: {','.join(self.faults_seen)}")
        if self.degraded:
            parts.append("degraded")
        return ", ".join(parts) + ")"


def reduced_vector(buf: np.ndarray, dtype: DataType) -> np.ndarray:
    """Assemble a reduce result: lane-major rows -> one typed vector."""
    arr = np.asarray(buf)
    if arr.ndim == 2:  # optimized path keeps the (lanes, elems) matrix
        return np.ascontiguousarray(arr).reshape(-1)
    return arr.view(dtype.np_dtype)  # conventional path stores raw bytes


@dataclass
class CommFuture:
    """Handle to one request inside a submitted batch.

    The simulated engine resolves futures synchronously, each with its
    own outcome: ``result()`` returns the request's result or re-raises
    the error the request alone failed with -- it never blocks.
    """

    index: int
    label: str
    #: Dependency wave the request ran in; -1 when it did not normalize.
    wave: int
    _result: CommResult | None = None
    _error: PidCommError | None = None

    def done(self) -> bool:
        """Whether the outcome is available (always True today)."""
        return self._result is not None or self._error is not None

    def result(self) -> CommResult:
        """The request's :class:`CommResult`; re-raises its error."""
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise PidCommError(
                f"request {self.index} ({self.label}) has no result yet")
        return self._result

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"CommFuture(#{self.index} {self.label}, wave {self.wave}, {state})"


@dataclass
class BatchResult:
    """Everything ``submit()`` produced: futures plus batch pricing."""

    futures: list[CommFuture]
    #: Overlap-aware combined cost (waves serialized, instances merged);
    #: a failed member adds its failed attempts when it spent its retry
    #: policy, nothing otherwise (here and in ``serial_ledger``).
    ledger: CostLedger
    #: Cost of the same requests priced one after another.
    serial_ledger: CostLedger
    #: Wave -> request indices, in execution order.
    waves: list[list[int]] = field(default_factory=list)
    #: Per-wave priced records (for timelines).
    wave_costs: list["WaveCost"] = field(default_factory=list)

    def __iter__(self) -> Iterator[CommFuture]:
        return iter(self.futures)

    def __len__(self) -> int:
        return len(self.futures)

    def __getitem__(self, index: int) -> CommFuture:
        return self.futures[index]

    @property
    def seconds(self) -> float:
        """Modelled batch time under the overlap-aware schedule."""
        return self.ledger.total

    @property
    def serial_seconds(self) -> float:
        """Modelled time had the requests been issued one at a time."""
        return self.serial_ledger.total

    @property
    def speedup(self) -> float:
        """Serial over batched time (>= 1.0 for any valid schedule)."""
        return self.serial_seconds / self.seconds if self.seconds else 1.0

    def __repr__(self) -> str:
        return (f"BatchResult({len(self.futures)} requests, "
                f"{len(self.waves)} waves, {self.seconds * 1e3:.3f} ms, "
                f"{self.speedup:.2f}x vs serial)")
