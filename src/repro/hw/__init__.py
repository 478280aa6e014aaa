"""Simulated PIM-enabled DIMM substrate (UPMEM-like).

This package models the hardware the paper runs on:

* :mod:`repro.hw.geometry` -- the channel/rank/chip/bank hierarchy and
  the *entangled groups* (sets of banks, one per chip of a rank, that
  share 64-byte bursts on the external bus).
* :mod:`repro.hw.domain` -- the PIM-domain byte striping and the domain
  transfer (byte transpose) the UPMEM driver performs.
* :mod:`repro.hw.memory` -- per-PE MRAM/WRAM byte arrays.
* :mod:`repro.hw.timing` -- the analytic cost model (machine parameter
  presets plus a per-category cost ledger).
* :mod:`repro.hw.system` -- the :class:`~repro.hw.system.DimmSystem`
  facade tying geometry, memories, and transfers together.  Its
  transfer kernels are the one host-to-PIM path: the collectives move
  bytes only through them, with the domain transfer switched off as in
  the paper's host code (section VI-B), and each plan step's ``cost()``
  prices what they move.
"""

from .geometry import DimmGeometry, EntangledGroup, PeCoord
from .memory import MRAM_DEFAULT_BYTES, WRAM_BYTES, PeMemory
from .system import DimmSystem
from .timing import CostLedger, MachineParams

__all__ = [
    "DimmGeometry",
    "EntangledGroup",
    "PeCoord",
    "PeMemory",
    "MRAM_DEFAULT_BYTES",
    "WRAM_BYTES",
    "DimmSystem",
    "CostLedger",
    "MachineParams",
]
