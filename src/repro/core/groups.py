"""Cube slicing: dimension bitmaps -> multi-instance communication groups.

Selecting a set of hypercube dimensions partitions the nodes into
*communication groups*: nodes sharing all non-selected coordinates form
one group, ordered lexicographically over the selected coordinates
(fastest dimension first).  One collective invocation runs one instance
per group, all together (paper section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from ..errors import HypercubeError
from .hypercube import HypercubeManager, parse_dim_bitmap


@dataclass(frozen=True)
class CommGroup:
    """One instance of a multi-instance collective.

    Attributes:
        instance: Instance index (order of the non-selected coordinates).
        pe_ids: Member physical PEs, in group-rank order (the rank of a
            PE inside its group is its position here).
    """

    instance: int
    pe_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.pe_ids)

    def rank_of(self, pe_id: int) -> int:
        """Group rank of a member PE."""
        try:
            return self.pe_ids.index(pe_id)
        except ValueError:
            raise HypercubeError(
                f"PE {pe_id} is not in communication group {self.instance}"
            ) from None


def resolve_dims(manager: HypercubeManager,
                 dims: str | Sequence[int]) -> tuple[int, ...]:
    """Accept either a bitmap string or explicit dimension indices."""
    if isinstance(dims, str):
        return parse_dim_bitmap(dims, manager.ndim)
    indices = tuple(sorted(set(int(d) for d in dims)))
    if not indices:
        raise HypercubeError("no communication dimensions selected")
    for d in indices:
        if not 0 <= d < manager.ndim:
            raise HypercubeError(
                f"dimension index {d} outside 0..{manager.ndim - 1}")
    return indices


def slice_groups(manager: HypercubeManager,
                 dims: str | Sequence[int]) -> tuple[CommGroup, ...]:
    """Form all communication groups for the selected dimensions.

    Returns groups ordered by instance index (non-selected coordinates
    in natural node order); every hypercube node is a member of exactly
    one group.  Sliced once per (manager, dims): the node -> PE grid is
    transposed so the non-selected axes come first, and each row of the
    flattened result is one group in rank order.
    """
    selected = resolve_dims(manager, dims)
    groups = manager._groups.get(selected)
    if groups is None:
        ndim = manager.ndim
        fixed = [d for d in range(ndim) if d not in selected]
        # Dimension d is grid axis ndim-1-d; slowest axis first on both
        # sides keeps the fastest dimension varying fastest.
        axes = [ndim - 1 - d for d in (*reversed(fixed), *reversed(selected))]
        rows = manager.pe_grid.transpose(axes).reshape(
            -1, prod(manager.shape.dims[d] for d in selected))
        groups = manager._groups[selected] = tuple(
            CommGroup(instance=i, pe_ids=tuple(row))
            for i, row in enumerate(rows.tolist()))
    return groups


def member_pes(manager: HypercubeManager,
               dims: str | Sequence[int]) -> tuple[int, ...]:
    """All PEs participating in a collective over ``dims``, sorted.

    Every hypercube node joins exactly one instance, so this is the
    manager's full membership whichever (valid) dimensions are selected.
    """
    resolve_dims(manager, dims)
    return manager.sorted_pes


def group_size(manager: HypercubeManager, dims: str | Sequence[int]) -> int:
    """Size of each communication group for the selected dimensions."""
    selected = resolve_dims(manager, dims)
    return prod(manager.shape.dims[d] for d in selected)
