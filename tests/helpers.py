"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import DimmSystem, HypercubeManager, SessionConfig
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
