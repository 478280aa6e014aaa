"""DIMM hierarchy geometry and entangled-group addressing.

The modelled hierarchy follows Figure 1 of the paper: a memory *channel*
contains several *ranks*; a rank contains several *chips* (usually 8)
whose 8-bit buses concatenate into the channel's 64-bit bus; a chip
contains several *banks* (usually 8), and a PE (UPMEM "DPU") is attached
to every bank.

Because the chips of a rank operate in unison, the set of banks with the
same bank index across all chips of a rank forms an *entangled group*:
one 64-byte burst on the external bus touches exactly those banks, one
byte lane per chip.  Drawing full bus bandwidth requires addressing a
whole entangled group at once, which is why PID-Comm's hypercube mapping
treats entangled groups as its assignment unit.

PE numbering: the linear PE id varies fastest over chips (the lanes of
an entangled group), then banks, then ranks, then channels.  This makes
any group of ``chips_per_rank`` consecutive PE ids exactly one entangled
group, and matches the paper's chip -> bank -> rank -> channel mapping
order (section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError


def _distinct(ids: np.ndarray) -> int:
    """Number of distinct values in a non-negative id array."""
    return int(np.count_nonzero(np.bincount(ids))) if ids.size else 0


@dataclass(frozen=True)
class DimmGeometry:
    """Shape of the simulated PIM-enabled DIMM system.

    Defaults give the paper's testbed: 4 channels x 4 ranks x 8 chips
    x 8 banks = 1024 PEs.
    """

    channels: int = 4
    ranks_per_channel: int = 4
    chips_per_rank: int = 8
    banks_per_chip: int = 8

    def __post_init__(self) -> None:
        for field_name in (
            "channels", "ranks_per_channel", "chips_per_rank", "banks_per_chip",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise GeometryError(f"{field_name} must be a positive int, got {value!r}")
        if self.chips_per_rank & (self.chips_per_rank - 1):
            raise GeometryError(
                f"chips_per_rank must be a power of two, got {self.chips_per_rank}"
            )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Total number of PEs in the system."""
        return (self.channels * self.ranks_per_channel
                * self.chips_per_rank * self.banks_per_chip)

    @property
    def pes_per_rank(self) -> int:
        return self.chips_per_rank * self.banks_per_chip

    @property
    def pes_per_channel(self) -> int:
        return self.pes_per_rank * self.ranks_per_channel

    @property
    def num_entangled_groups(self) -> int:
        """Total entangled groups (= PEs / chips_per_rank)."""
        return self.num_pes // self.chips_per_rank

    # ------------------------------------------------------------------
    # Bus utilization
    # ------------------------------------------------------------------
    def lane_utilization(self, pe_ids) -> float:
        """Fraction of burst byte-lanes carrying useful data.

        A burst always moves ``chips_per_rank`` lanes; if a transfer only
        involves ``k`` member PEs of an entangled group, ``k/lanes`` of
        the burst is useful.  Every touched entangled group costs a full
        burst regardless of member count, so over a PE set (uniform
        bytes per PE assumed) the useful share is ``members / (lanes *
        distinct(pe // lanes))``.  Used by the cost model to penalize
        communication groups that are not entangled-group aligned
        (paper section III-B).
        """
        ids = self.pe_array(pe_ids)
        if not ids.size:
            raise GeometryError("lane_utilization of an empty PE set")
        lanes = self.chips_per_rank
        return ids.size / (lanes * _distinct(ids // lanes))

    def channels_used(self, pe_ids) -> int:
        """Number of distinct channels a PE set spans."""
        return _distinct(self.pe_array(pe_ids) // self.pes_per_channel)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_pe(self, pe_id: int) -> None:
        if not 0 <= pe_id < self.num_pes:
            raise GeometryError(f"pe_id {pe_id} out of range [0, {self.num_pes})")

    def pe_array(self, pe_ids) -> np.ndarray:
        """``pe_ids`` (any iterable) as an int64 array, range-checked as one.

        Raises :class:`GeometryError` naming the first id outside
        ``[0, num_pes)``.
        """
        if not isinstance(pe_ids, (np.ndarray, list, tuple)):
            pe_ids = list(pe_ids)
        ids = np.asarray(pe_ids, dtype=np.int64).ravel()
        if ids.size and not 0 <= ids.min() <= ids.max() < self.num_pes:
            self._check_pe(int(ids[(ids < 0) | (ids >= self.num_pes)][0]))
        return ids

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (f"{self.channels}ch x {self.ranks_per_channel}rk x "
                f"{self.chips_per_rank}chip x {self.banks_per_chip}bank "
                f"= {self.num_pes} PEs "
                f"({self.num_entangled_groups} entangled groups)")
