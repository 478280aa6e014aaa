"""Per-PE memories: MRAM (the DRAM bank) and WRAM (the scratchpad).

Functional executions move real bytes through these arrays; analytic
executions never touch them (the :class:`~repro.hw.system.DimmSystem`
allocates memories lazily, so a 1024-PE analytic run costs nothing).

Two storage layouts exist behind the same interface: the scalar
backend's private-array :class:`PeMemory`, and the vectorized backend's
:class:`ArenaPeMemory`, whose MRAM is a row of the system-wide
lane-major :class:`~repro.hw.arena.MemoryArena`.
"""

from __future__ import annotations

import numpy as np

from ..errors import AllocationError, TransferError
from .arena import MemoryArena, Region

#: Default simulated MRAM size.  Real UPMEM banks hold 64 MiB; tests and
#: examples use far less, and the size is configurable per system.
MRAM_DEFAULT_BYTES = 1 << 20

#: WRAM scratchpad size (matches UPMEM's 64 KiB).
WRAM_BYTES = 64 << 10


class PeMemory:
    """The memories attached to one PE."""

    def __init__(self, mram_bytes: int = MRAM_DEFAULT_BYTES) -> None:
        if mram_bytes <= 0:
            raise AllocationError(f"mram_bytes must be positive, got {mram_bytes}")
        self.mram = np.zeros(mram_bytes, dtype=np.uint8)
        self.wram = np.zeros(WRAM_BYTES, dtype=np.uint8)

    @property
    def mram_bytes(self) -> int:
        return self.mram.size

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` of MRAM starting at ``offset``."""
        self._check_range(offset, nbytes)
        return self.mram[offset:offset + nbytes].copy()

    def write(self, offset: int, data: np.ndarray) -> None:
        """Write a uint8 buffer into MRAM at ``offset``."""
        buf = np.asarray(data)
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise TransferError(
                f"MRAM writes take 1-D uint8 buffers, got {buf.dtype} "
                f"ndim={buf.ndim}")
        self._check_range(offset, buf.size)
        self.mram[offset:offset + buf.size] = buf

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-copy MRAM window (mutating it mutates the bank)."""
        self._check_range(offset, nbytes)
        return self.mram[offset:offset + nbytes]

    def unlogged(self) -> "PeMemory":
        """This PE's memories through a handle whose writes log
        nothing, for a kernel whose caller logs its whole region once.
        A private bank logs nothing anyway, so it is its own handle."""
        return self

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.mram.size:
            raise TransferError(
                f"MRAM access [{offset}, {offset + nbytes}) outside "
                f"[0, {self.mram.size})")


class ArenaPeMemory(PeMemory):
    """One PE's handle into a shared lane-major :class:`MemoryArena`.

    ``mram`` resolves to the PE's *current* arena row on every access,
    so arena growth (which reallocates the backing array) can never
    leave a stale alias behind.  WRAM stays a private per-PE scratchpad
    exactly as in :class:`PeMemory`; all inherited accessors work
    unchanged and read/write the shared arena.
    """

    def __init__(self, arena: MemoryArena, pe_id: int) -> None:
        self.arena = arena
        self.pe_id = pe_id
        self.wram = np.zeros(WRAM_BYTES, dtype=np.uint8)
        arena.touch((pe_id,))

    @property
    def mram(self) -> np.ndarray:
        """This PE's bank: a zero-copy row view of the arena."""
        return self.arena.row_view(self.pe_id)

    def write(self, offset: int, data: np.ndarray) -> None:
        super().write(offset, data)
        self.arena.note_write(Region((self.pe_id,), offset, len(data)))

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        # A writable window escapes the arena's write tracking, so its
        # handout must count as a write for scan-plan cache safety
        # (holders may mutate it at any later point).
        self.arena.note_write(Region((self.pe_id,), offset, nbytes))
        return super().view(offset, nbytes)

    def unlogged(self) -> PeMemory:
        """A plain :class:`PeMemory` over this PE's arena row and WRAM.

        The row is resolved once, so the handle must not outlive the
        kernel it serves: arena growth (touching a new PE) replaces
        the backing array.
        """
        handle = PeMemory.__new__(PeMemory)
        handle.mram, handle.wram = self.mram, self.wram
        return handle
