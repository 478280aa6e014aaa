"""The virtual hypercube abstraction (paper section IV).

Users describe the PEs they use as an N-dimensional hypercube whose
node count equals the PE count.  Every dimension length must be a power
of two except the last one (the only non-power-of-two level of the DRAM
hierarchy is the channel count, which the mapping places last).

Mapping (section IV-C): hypercube nodes are filled with *entangled
groups* in DRAM-hierarchy order -- chip (fastest), then bank, then
rank, then channel.  Dimension 0 of the shape varies fastest, so low
dimensions land inside entangled groups and any cube slice spans whole
entangled groups whenever its size allows, guaranteeing full burst
bandwidth no matter which dimensions a user communicates over.

A *dimension bitmap* such as ``"010"`` selects the dimensions taking
part in one multi-instance communication: character ``i`` corresponds
to shape dimension ``i`` (``"010"`` = the y axis of an (x, y, z) cube,
as in Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

from ..errors import HypercubeError
from ..hw.system import DimmSystem

_DIM_LETTERS = "xyzuvw"


def _is_pow2(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HypercubeShape:
    """Validated hypercube shape (dimension 0 = x = fastest-varying)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise HypercubeError("hypercube needs at least one dimension")
        for i, length in enumerate(self.dims):
            if not isinstance(length, int) or length < 1:
                raise HypercubeError(
                    f"dimension {i} must be a positive int, got {length!r}")
            if i != len(self.dims) - 1 and not _is_pow2(length):
                raise HypercubeError(
                    f"dimension {i} length {length} must be a power of two "
                    f"(only the last dimension may be arbitrary)")

    @property
    def num_nodes(self) -> int:
        return prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def dim_name(self, index: int) -> str:
        """Conventional letter for a dimension (x, y, z, ...)."""
        if index < len(_DIM_LETTERS):
            return _DIM_LETTERS[index]
        return f"d{index}"

    def node_index(self, coords: Sequence[int]) -> int:
        """Linear node index of hypercube coordinates (dim 0 fastest)."""
        if len(coords) != self.ndim:
            raise HypercubeError(
                f"expected {self.ndim} coordinates, got {len(coords)}")
        index = 0
        stride = 1
        for coord, length in zip(coords, self.dims):
            if not 0 <= coord < length:
                raise HypercubeError(
                    f"coordinate {coord} outside dimension of length {length}")
            index += coord * stride
            stride *= length
        return index

    def node_coords(self, index: int) -> tuple[int, ...]:
        """Hypercube coordinates of a linear node index."""
        if not 0 <= index < self.num_nodes:
            raise HypercubeError(
                f"node index {index} outside [0, {self.num_nodes})")
        coords = []
        for length in self.dims:
            coords.append(index % length)
            index //= length
        return tuple(coords)

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


def parse_dim_bitmap(bitmap: str, ndim: int) -> tuple[int, ...]:
    """Parse a ``comm_dimensions`` bitmap into selected dimension indices.

    ``bitmap[i] == '1'`` selects shape dimension ``i`` (so ``"010"`` on
    an (x, y, z) cube selects y).  At least one dimension must be set.
    """
    if len(bitmap) != ndim:
        raise HypercubeError(
            f"bitmap {bitmap!r} has {len(bitmap)} characters for a "
            f"{ndim}-dimensional hypercube")
    selected = []
    for i, char in enumerate(bitmap):
        if char == "1":
            selected.append(i)
        elif char != "0":
            raise HypercubeError(
                f"bitmap {bitmap!r} must contain only '0'/'1'")
    if not selected:
        raise HypercubeError(f"bitmap {bitmap!r} selects no dimension")
    return tuple(selected)


class HypercubeManager:
    """Maps a user-defined virtual hypercube onto physical PEs.

    Args:
        system: The DIMM system whose PEs are being abstracted.
        shape: Dimension lengths, fastest-varying first; their product
            must not exceed the system's PE count.  All lengths except
            the last must be powers of two.
        base_pe: First physical PE to use (PEs are assigned in linear
            id order, i.e. chip -> bank -> rank -> channel).
        pe_map: Explicit node -> physical-PE table overriding the
            contiguous identity mapping.  Used by degraded (remapped)
            cubes after a permanent rank failure; ``base_pe`` is
            ignored when given.

    The identity ``virtual node i  <->  physical PE (base_pe + i)``
    realizes the paper's mapping because both orders are "fastest at
    the bottom of the hierarchy": hypercube dim 0 varies fastest and PE
    ids vary fastest over the chips of an entangled group.
    """

    def __init__(self, system: DimmSystem, shape: Sequence[int],
                 base_pe: int = 0,
                 pe_map: Sequence[int] | None = None) -> None:
        self.system = system
        self.shape = HypercubeShape(tuple(shape))
        #: ``core.groups.slice_groups`` memo, per resolved dims.  A
        #: manager's mapping is immutable (``without_pes`` builds a new
        #: manager), so entries never go stale.
        self._groups: dict[tuple[int, ...], tuple] = {}
        if pe_map is not None:
            pes = tuple(int(pe) for pe in pe_map)
            if len(pes) != self.shape.num_nodes:
                raise HypercubeError(
                    f"pe_map has {len(pes)} entries for a "
                    f"{self.shape.num_nodes}-node hypercube")
            if len(set(pes)) != len(pes):
                raise HypercubeError("pe_map entries must be distinct")
            system.geometry.pe_array(pes)
            self._pe_map: tuple[int, ...] | None = pes
            self._node_of_pe = {pe: node for node, pe in enumerate(pes)}
            self.base_pe = min(pes)
            return
        self._pe_map = None
        self._node_of_pe = None
        if base_pe < 0:
            raise HypercubeError(f"base_pe must be >= 0, got {base_pe}")
        if base_pe % system.geometry.chips_per_rank:
            raise HypercubeError(
                "base_pe must be entangled-group aligned "
                f"(multiple of {system.geometry.chips_per_rank}), got {base_pe}")
        if base_pe + self.shape.num_nodes > system.num_pes:
            raise HypercubeError(
                f"hypercube {self.shape} with base_pe={base_pe} needs "
                f"{base_pe + self.shape.num_nodes} PEs but the system has "
                f"{system.num_pes}")
        self.base_pe = base_pe

    @property
    def num_nodes(self) -> int:
        return self.shape.num_nodes

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    # ------------------------------------------------------------------
    # Virtual <-> physical
    # ------------------------------------------------------------------
    def pe_of_node(self, node_index: int) -> int:
        """Physical PE id of a virtual node."""
        if not 0 <= node_index < self.num_nodes:
            raise HypercubeError(
                f"node {node_index} outside [0, {self.num_nodes})")
        if self._pe_map is not None:
            return self._pe_map[node_index]
        return self.base_pe + node_index

    def node_of_pe(self, pe_id: int) -> int:
        """Virtual node index of a physical PE."""
        if self._pe_map is not None:
            node = self._node_of_pe.get(pe_id)
            if node is None:
                raise HypercubeError(
                    f"PE {pe_id} is not part of this hypercube")
            return node
        node = pe_id - self.base_pe
        if not 0 <= node < self.num_nodes:
            raise HypercubeError(
                f"PE {pe_id} is not part of this hypercube")
        return node

    def pe_of_coords(self, coords: Sequence[int]) -> int:
        """Physical PE id of hypercube coordinates."""
        return self.pe_of_node(self.shape.node_index(coords))

    def coords_of_pe(self, pe_id: int) -> tuple[int, ...]:
        """Hypercube coordinates of a physical PE."""
        return self.shape.node_coords(self.node_of_pe(pe_id))

    @cached_property
    def all_pes(self) -> tuple[int, ...]:
        """All member PEs in virtual-node order."""
        if self._pe_map is not None:
            return self._pe_map
        return tuple(range(self.base_pe, self.base_pe + self.num_nodes))

    @cached_property
    def sorted_pes(self) -> tuple[int, ...]:
        """All member PEs in physical id order."""
        return tuple(sorted(self.all_pes))

    @cached_property
    def pe_grid(self) -> np.ndarray:
        """Read-only node -> PE table indexed ``[c_last, ..., c_1, c_0]``.

        Hypercube dimension ``d`` is array axis ``ndim - 1 - d`` (dim 0
        varies fastest in node order, the last axis in C order).
        """
        grid = np.array(self.all_pes, dtype=np.int64).reshape(
            self.shape.dims[::-1])
        grid.setflags(write=False)
        return grid

    # ------------------------------------------------------------------
    # Reliability: identity and degradation
    # ------------------------------------------------------------------
    def topology_signature(self) -> tuple:
        """Hashable identity of the virtual -> physical mapping.

        Two managers share a signature iff every node lands on the same
        physical PE, so plan-cache keys carrying it can never alias a
        healthy cube's plans with a degraded (remapped) cube's plans.
        """
        if self._pe_map is not None:
            return (self.shape.dims, self._pe_map)
        return (self.shape.dims, self.base_pe)

    def without_pes(self, dead_pes: Sequence[int]) -> "HypercubeManager":
        """Remap onto the surviving PEs after a permanent failure.

        The shape shrinks by repeatedly halving the largest halvable
        dimension until the node count fits the survivors (keeping the
        power-of-two constraints intact), and the surviving PEs fill
        the shrunk cube in id order -- survivors of whole live ranks
        stay entangled-group aligned, so burst bandwidth is preserved.
        Raises :class:`HypercubeError` when no dimension can shrink far
        enough (e.g. every rank is dead).
        """
        dead = set(int(pe) for pe in dead_pes)
        survivors = [pe for pe in self.all_pes if pe not in dead]
        if not survivors:
            raise HypercubeError("no surviving PEs to remap onto")
        dims = list(self.shape.dims)
        while prod(dims) > len(survivors):
            halvable = [i for i, d in enumerate(dims) if d > 1 and d % 2 == 0]
            if not halvable:
                raise HypercubeError(
                    f"cannot shrink {self.shape} onto {len(survivors)} "
                    f"surviving PEs")
            widest = max(halvable, key=lambda i: dims[i])
            dims[widest] //= 2
        return HypercubeManager(self.system, dims,
                                pe_map=tuple(survivors[: prod(dims)]))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable mapping summary."""
        geom = self.system.geometry
        if self._pe_map is not None:
            return (f"hypercube {self.shape} remapped onto "
                    f"{self.num_nodes} PEs of {geom.describe()}")
        return (f"hypercube {self.shape} on PEs "
                f"[{self.base_pe}, {self.base_pe + self.num_nodes}) of "
                f"{geom.describe()}")

    def entangled_group_alignment(self, dim_indices: Sequence[int]) -> float:
        """Lane utilization of the groups formed over ``dim_indices``.

        1.0 means every communication group spans whole entangled
        groups (or several instances pack to fill them); lower values
        mean wasted burst lanes.  With this manager's mapping this is
        always 1.0 whenever the total PE count covers whole entangled
        groups, which is what the hypercube constraints guarantee.
        """
        from .groups import resolve_dims  # local import to avoid a cycle
        resolve_dims(self, dim_indices)
        # Instances pack: lanes of an EG are useful if *any* group uses
        # them, because all instances run in the same burst sweep -- and
        # every node is in exactly one group, so whichever dimensions
        # are sliced the touched lanes are the cube's own PEs.
        return self.system.geometry.lane_utilization(self.pe_grid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HypercubeManager({self.describe()})"
