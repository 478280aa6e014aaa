"""Cube slicing: dimension bitmaps -> multi-instance communication groups.

Selecting a set of hypercube dimensions partitions the nodes into
*communication groups*: nodes sharing all non-selected coordinates form
one group, ordered lexicographically over the selected coordinates
(fastest dimension first).  One collective invocation runs one instance
per group, all together (paper section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
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
                 dims: str | Sequence[int]) -> list[CommGroup]:
    """Form all communication groups for the selected dimensions.

    Returns groups ordered by instance index; every hypercube node is a
    member of exactly one group.
    """
    selected = resolve_dims(manager, dims)
    shape = manager.shape
    fixed = [d for d in range(shape.ndim) if d not in selected]

    # Iterate non-selected coordinates (instances), slowest dim last to
    # keep instance ids in natural node order.
    fixed_ranges = [range(shape.dims[d]) for d in fixed]
    sel_ranges = [range(shape.dims[d]) for d in selected]

    groups: list[CommGroup] = []
    for instance, fixed_coords in enumerate(_lex_fastest_first(fixed_ranges)):
        members = []
        for sel_coords in _lex_fastest_first(sel_ranges):
            coords = [0] * shape.ndim
            for d, c in zip(fixed, fixed_coords):
                coords[d] = c
            for d, c in zip(selected, sel_coords):
                coords[d] = c
            members.append(manager.pe_of_coords(coords))
        groups.append(CommGroup(instance=instance, pe_ids=tuple(members)))
    return groups


def member_pes(manager: HypercubeManager,
               dims: str | Sequence[int]) -> tuple[int, ...]:
    """All PEs participating in a collective over ``dims``, sorted.

    Every hypercube node joins exactly one instance, so this is simply
    the manager's full membership -- but routed through the slicing so
    the reliability layer's snapshots stay correct if partial slicing
    is ever introduced.  Sliced once per (manager, dims): the
    reliability layer asks on every call, and a degraded cube is a new
    manager with an empty memo.
    """
    selected = resolve_dims(manager, dims)
    members = manager._member_pes.get(selected)
    if members is None:
        seen: set[int] = set()
        for group in slice_groups(manager, selected):
            seen.update(group.pe_ids)
        members = manager._member_pes[selected] = tuple(sorted(seen))
    return members


def group_size(manager: HypercubeManager, dims: str | Sequence[int]) -> int:
    """Size of each communication group for the selected dimensions."""
    selected = resolve_dims(manager, dims)
    return prod(manager.shape.dims[d] for d in selected)


def _lex_fastest_first(ranges: list[range]):
    """Iterate a multi-range with the *first* range varying fastest.

    itertools.product varies the last range fastest, so reverse twice.
    """
    if not ranges:
        yield ()
        return
    for combo in iter_product(*reversed(ranges)):
        yield tuple(reversed(combo))
