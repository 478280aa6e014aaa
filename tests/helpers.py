"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro import DimmGeometry, DimmSystem, HypercubeManager, SessionConfig
from repro.core.collectives.steps import slot_permutation_matrix
from repro.core.groups import CommGroup, slice_groups
from repro.dtypes import DataType


def fill_group_inputs(system: DimmSystem, groups: Sequence[CommGroup],
                      offset: int, elems_per_pe: int, dtype: DataType,
                      rng: np.random.Generator) -> dict[int, list[np.ndarray]]:
    """Write random inputs per PE; returns instance -> rank-ordered vectors."""
    inputs: dict[int, list[np.ndarray]] = {}
    for group in groups:
        vectors = []
        for pe in group.pe_ids:
            if dtype.np_dtype.kind == "f":
                values = rng.integers(-50, 50, elems_per_pe).astype(
                    dtype.np_dtype)
            else:
                info = np.iinfo(dtype.np_dtype)
                low = max(info.min, -100)
                high = min(info.max, 100)
                values = rng.integers(low, high + 1, elems_per_pe).astype(
                    dtype.np_dtype)
            system.write_elements(pe, offset, values, dtype)
            vectors.append(values)
        inputs[group.instance] = vectors
    return inputs


def read_group_outputs(system: DimmSystem, group: CommGroup, offset: int,
                       elems: int, dtype: DataType) -> list[np.ndarray]:
    """Read each member's output vector in rank order."""
    return [system.read_elements(pe, offset, elems, dtype)
            for pe in group.pe_ids]


def make_manager(shape: tuple[int, ...], mram_bytes: int = 1 << 16
                 ) -> HypercubeManager:
    """A manager on the 32-PE test system (2ch x 1rk x 4chip x 4bank)."""
    system = DimmSystem.small(mram_bytes=mram_bytes)
    return HypercubeManager(system, shape=shape)


def groups_of(manager: HypercubeManager,
              dims: str) -> tuple[CommGroup, ...]:
    return slice_groups(manager, dims)


def parity_config(backend: str, execution: str = "auto",
                  **kwargs) -> SessionConfig:
    """One side of a cross-store parity check.

    ``"scalar"`` is always the interpreted oracle (compiled replay runs
    on the arena only); ``execution`` applies to the ``"vectorized"``
    side.
    """
    if backend == "scalar":
        execution = "interpreted"
    return SessionConfig(backend=backend, execution=execution, **kwargs)


#: The stores a compiling session may run on.  Compiled-replay rows
#: still parametrize over it, so their ids keep naming the store.
COMPILED_STORES = ("vectorized",)


# ----------------------------------------------------------------------
# Per-PE reference model.  The library answers geometry and mapping
# questions for whole PE arrays at once (``DimmGeometry.pe_array``,
# ``lane_utilization``, ``HypercubeManager.pe_grid``, ``slice_groups``);
# these walk the documented orders one PE or one node at a time, so the
# tests can check the vectorised forms against them.
# ----------------------------------------------------------------------
class PeCoord(NamedTuple):
    """Physical coordinates of one PE (DPU)."""

    channel: int
    rank: int
    bank: int
    chip: int


def pe_coord(geom: DimmGeometry, pe: int) -> PeCoord:
    """Coordinates of a linear PE id: chip fastest, then bank, rank,
    channel (paper section IV-C)."""
    rest, chip = divmod(pe, geom.chips_per_rank)
    rest, bank = divmod(rest, geom.banks_per_chip)
    channel, rank = divmod(rest, geom.ranks_per_channel)
    return PeCoord(channel, rank, bank, chip)


def pe_id(geom: DimmGeometry, coord: PeCoord) -> int:
    """Inverse of :func:`pe_coord`."""
    return coord.chip + geom.chips_per_rank * (
        coord.bank + geom.banks_per_chip * (
            coord.rank + geom.ranks_per_channel * coord.channel))


def eg_of_pe(geom: DimmGeometry, pe: int) -> int:
    """Entangled group of a PE: the chips of one bank index of a rank."""
    return pe // geom.chips_per_rank


def lane_of_pe(geom: DimmGeometry, pe: int) -> int:
    """Byte lane (chip) of a PE inside its entangled group."""
    return pe % geom.chips_per_rank


def entangled_group(geom: DimmGeometry, eg: int) -> tuple[int, ...]:
    """Member PEs of entangled group ``eg``, in lane order."""
    return tuple(range(eg * geom.chips_per_rank,
                       (eg + 1) * geom.chips_per_rank))


def node_index(dims: Sequence[int], coords: Sequence[int]) -> int:
    """Linear node index of hypercube coordinates (dim 0 fastest)."""
    index, stride = 0, 1
    for coord, length in zip(coords, dims, strict=True):
        assert 0 <= coord < length
        index += coord * stride
        stride *= length
    return index


def node_coords(dims: Sequence[int], index: int) -> tuple[int, ...]:
    """Inverse of :func:`node_index`."""
    coords = []
    for length in dims:
        index, coord = divmod(index, length)
        coords.append(coord)
    return tuple(coords)


def pe_of_coords(manager: HypercubeManager, coords: Sequence[int]) -> int:
    """Physical PE of hypercube coordinates."""
    return manager.pe_of_node(node_index(manager.shape.dims, coords))


def coords_of_pe(manager: HypercubeManager, pe: int) -> tuple[int, ...]:
    """Hypercube coordinates of a member PE."""
    return node_coords(manager.shape.dims, manager.all_pes.index(pe))


def slot_permutation(rule: str, rank: int, nslots: int) -> np.ndarray:
    """The slot permutation of the PE of group rank ``rank``: ``perm``
    with ``new[i] = old[perm[i]]`` (a row of ``slot_permutation_matrix``;
    read-only)."""
    return slot_permutation_matrix(rule, rank + 1, nslots)[rank]


# ----------------------------------------------------------------------
# Application reference model.  ``golden_dlrm`` pools every (sample,
# table) pair in one gather; this pools them one pair at a time, so the
# tests can check the vectorised form against it.
# ----------------------------------------------------------------------
def golden_dlrm_loop(indices: np.ndarray, tables: np.ndarray,
                     w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """DLRM scores from ``indices`` ``(batch, tables, hots)``: each
    sample's looked-up rows summed per table, then relu MLP -> linear."""
    batch, num_tables, _ = indices.shape
    dim = tables.shape[2]
    pooled = np.zeros((batch, num_tables, dim), dtype=np.int64)
    for s in range(batch):
        for t in range(num_tables):
            pooled[s, t] = tables[t, indices[s, t]].sum(axis=0)
    flat = pooled.reshape(batch, num_tables * dim)
    return np.maximum(flat @ w1, 0) @ w2
