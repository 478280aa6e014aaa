"""Deterministic fault injection for the simulated UPMEM substrate.

Real PID-Comm deployments see the host mediate *every* inter-PE
transfer, so a single flaky rank, corrupted bus burst, or hung DPU
launch poisons an entire collective (Gomez-Luna et al. report
transfer-level variability on production UPMEM systems).  The
:class:`FaultInjector` reproduces those failure modes on the simulator,
seeded so every run is exactly replayable:

* **bit flips** -- one bit of a transfer is corrupted in flight; the
  checksum layer (``reliability/checksum.py``) detects it and raises
  :class:`~repro.errors.ChecksumError`;
* **drops** -- a lane transfer is abandoned, a write possibly after a
  partial delivery (:class:`~repro.errors.TransferDropped`);
* **timeouts** -- a kernel launch hangs past its watchdog deadline
  (:class:`~repro.errors.LaunchTimeout`);
* **permanent rank failures** -- a whole rank goes dark; every later
  access raises :class:`~repro.errors.RankFailure` until the caller
  remaps around it.

The injector hangs off :class:`~repro.hw.system.DimmSystem`, whose
transfer kernels are its fault sites; decisions are drawn from one
``np.random.default_rng`` stream, so a fixed seed plus a fixed call
sequence reproduces the exact same fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import LaunchTimeout, RankFailure, ReliabilityError

#: Fault classes the injector can produce, in reporting order.
FAULT_KINDS = ("bit_flip", "drop", "timeout", "rank_failure")


@dataclass(frozen=True)
class FaultSpec:
    """Per-event fault probabilities (each decision is one draw).

    Rates are per *operation* (one transfer, one launch), not per byte:
    a ``bit_flip_rate`` of 0.01 corrupts roughly one in a hundred
    transfers regardless of size, matching how bus-burst CRC errors
    present on real hardware.
    """

    bit_flip_rate: float = 0.0
    drop_rate: float = 0.0
    timeout_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bit_flip_rate", "drop_rate", "timeout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReliabilityError(
                    f"{name} must be in [0, 1], got {rate}")

    @property
    def transient_total(self) -> float:
        """Combined per-operation transient fault pressure."""
        return self.bit_flip_rate + self.drop_rate + self.timeout_rate


class FaultInjector:
    """Seeded fault source shared by the driver and the system.

    Args:
        spec: Transient fault rates; keyword rates may be given instead
            (``FaultInjector(seed=1, bit_flip_rate=0.01)``).
        seed: Seed for the decision stream (deterministic replay).
    """

    def __init__(self, spec: FaultSpec | None = None, seed: int = 0,
                 **rates: float) -> None:
        if spec is not None and rates:
            raise ReliabilityError("pass either a FaultSpec or rates, not both")
        self.spec = spec if spec is not None else FaultSpec(**rates)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: Faults actually injected, by kind.
        self.injected: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        #: Permanently failed global rank ids.
        self.failed_ranks: set[int] = set()

    # ------------------------------------------------------------------
    # Permanent failures
    # ------------------------------------------------------------------
    def fail_rank(self, rank_id: int) -> None:
        """Mark a global rank (channel * ranks + rank) permanently dead."""
        if rank_id < 0:
            raise ReliabilityError(f"rank id must be >= 0, got {rank_id}")
        if rank_id not in self.failed_ranks:
            self.failed_ranks.add(rank_id)
            self.injected["rank_failure"] += 1

    def failed_pes(self, geometry) -> frozenset[int]:
        """All PE ids living on failed ranks."""
        per_rank = geometry.pes_per_rank
        dead: set[int] = set()
        for rank in self.failed_ranks:
            base = rank * per_rank
            dead.update(range(base, base + per_rank))
        return frozenset(dead)

    def guard_pes(self, geometry, pe_ids: Iterable[int]) -> None:
        """Raise :class:`RankFailure` if any PE sits on a failed rank."""
        if not self.failed_ranks:
            return
        per_rank = geometry.pes_per_rank
        dead = tuple(pe for pe in pe_ids
                     if pe // per_rank in self.failed_ranks)
        if dead:
            ranks = sorted({pe // per_rank for pe in dead})
            raise RankFailure(
                f"operation touches {len(dead)} PEs on failed rank(s) "
                f"{ranks}", pe_ids=dead)

    # ------------------------------------------------------------------
    # Transient decisions (one rng draw each, replayable by seed)
    # ------------------------------------------------------------------
    def corrupt_transfer(self, buf: np.ndarray) -> np.ndarray:
        """Maybe flip one random bit of a transfer buffer (copy).

        Returns ``buf`` itself (the same object) when no fault fires;
        otherwise a corrupted copy, leaving the caller's data intact
        (the checksum layer decides whether corruption is *detected*,
        and checksums only the deliveries that are not ``buf``).
        """
        if self.spec.bit_flip_rate <= 0.0 or buf.size == 0:
            return buf
        if self.rng.random() >= self.spec.bit_flip_rate:
            return buf
        self.injected["bit_flip"] += 1
        arr = np.ascontiguousarray(buf)
        corrupted = arr.reshape(-1).view(np.uint8).copy()
        byte = int(self.rng.integers(0, corrupted.size))
        bit = int(self.rng.integers(0, 8))
        corrupted[byte] ^= np.uint8(1 << bit)
        return corrupted.view(arr.dtype).reshape(arr.shape)

    def take_drop(self) -> bool:
        """Decide whether this transfer is dropped."""
        if self.spec.drop_rate <= 0.0:
            return False
        if self.rng.random() < self.spec.drop_rate:
            self.injected["drop"] += 1
            return True
        return False

    def take_timeout(self, what: str = "launch") -> None:
        """Maybe abort a kernel launch with :class:`LaunchTimeout`."""
        if self.spec.timeout_rate <= 0.0:
            return
        if self.rng.random() < self.spec.timeout_rate:
            self.injected["timeout"] += 1
            raise LaunchTimeout(f"{what} hung past its watchdog deadline")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def describe(self) -> str:
        """One-line summary: seed, rates, injected-fault counters."""
        parts = [f"{k}={v}" for k, v in self.injected.items() if v]
        spec = self.spec
        return (f"FaultInjector(seed={self.seed}, "
                f"rates=({spec.bit_flip_rate}, {spec.drop_rate}, "
                f"{spec.timeout_rate}), "
                f"injected: {', '.join(parts) if parts else 'none'})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def partial_prefix(pe_ids: Sequence[int]) -> Sequence[int]:
    """The PEs a dropped transfer managed to reach before aborting.

    Deterministic (first half, at least one when possible) so dropped
    partial deliveries replay exactly.
    """
    return pe_ids[: max(1, len(pe_ids) // 2)]
