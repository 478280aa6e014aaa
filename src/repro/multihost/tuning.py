"""Topology-aware selection of the global-phase algorithm.

The single-host autotuner (PR 8) picks tiles and rungs by pricing
candidates on the machine model and caching the argmin per shape.
:class:`GlobalTuner` extends exactly that discipline to the
inter-host phase: per ``(primitive, payload, topology)`` it compiles
every applicable candidate algorithm
(``ring`` / ``halving_doubling`` / ``exchange``, the latter over a
small family of factorizations including the rack-aligned split),
prices each on the :class:`~repro.multihost.Fabric`, and commits the
cheapest into a decision cache keyed by the fabric's signature.

Because selection is an argmin over the same model the fixed
alternatives are priced with, the chosen algorithm is never worse than
the best fixed algorithm *on modelled fabric seconds*
(``test_choice_is_argmin_of_candidates`` pins it; the ``multihost_8h``
benchmark workload watches it).  And because algorithms shape cost
only (the functional exchange is shared numpy), selection can never
change results.
"""

from __future__ import annotations

from ..errors import CollectiveError
from .algorithms import (
    GLOBAL_ALGORITHMS,
    GlobalProgram,
    compile_global,
    factor_candidates,
)
from .fabric import Fabric


class GlobalTuner:
    """Cost-model argmin over global-phase algorithms, decision-cached.

    Args:
        fabric: The topology programs are priced on.
        algorithms: Candidate algorithms (default: all of
            :data:`~repro.multihost.GLOBAL_ALGORITHMS`).  A single entry
            pins the choice, mirroring how a pinned
            ``SessionConfig.stream_tile_bytes`` collapses the tile axis
            for the local tuner.
    """

    def __init__(self, fabric: Fabric,
                 algorithms: tuple[str, ...] | None = None) -> None:
        if algorithms is None:
            algorithms = GLOBAL_ALGORITHMS
        for algorithm in algorithms:
            if algorithm not in GLOBAL_ALGORITHMS:
                raise CollectiveError(
                    f"unknown global algorithm {algorithm!r}; "
                    f"known: {GLOBAL_ALGORITHMS}")
        if not algorithms:
            raise CollectiveError("global tuner needs at least one "
                                  "candidate algorithm")
        self.fabric = fabric
        self.algorithms = tuple(algorithms)
        #: (primitive, nbytes) -> chosen program; the fabric signature
        #: is part of the instance (one tuner per fabric), so the key
        #: stays small.
        self._decisions: dict[tuple[str, int], GlobalProgram] = {}
        self.searches = 0
        self.decision_hits = 0

    def candidates(self, primitive: str, nbytes: int
                   ) -> list[GlobalProgram]:
        """Every applicable priced candidate, cheapest first."""
        scored: list[GlobalProgram] = []
        n = self.fabric.num_hosts
        for algorithm in self.algorithms:
            if algorithm == "exchange":
                for factors in factor_candidates(n, self.fabric):
                    program = compile_global(primitive, n, nbytes,
                                             algorithm, self.fabric,
                                             factors=factors)
                    if program is not None:
                        scored.append(program)
            else:
                program = compile_global(primitive, n, nbytes, algorithm,
                                         self.fabric)
                if program is not None:
                    scored.append(program)
        if not scored:
            raise CollectiveError(
                f"no candidate global algorithm applies to {n} hosts "
                f"(candidates: {self.algorithms})")
        # Stable tie-break: cheapest, then fewer rounds, then the
        # canonical algorithm order.
        order = {name: i for i, name in enumerate(GLOBAL_ALGORITHMS)}
        scored.sort(key=lambda p: (p.seconds, len(p.rounds),
                                   order[p.algorithm]))
        return scored

    def choose(self, primitive: str, nbytes: int) -> GlobalProgram:
        """The cheapest global program for this payload (cached)."""
        key = (primitive, nbytes)
        cached = self._decisions.get(key)
        if cached is not None:
            self.decision_hits += 1
            return cached
        self.searches += 1
        best = self.candidates(primitive, nbytes)[0]
        self._decisions[key] = best
        return best

    def invalidate(self) -> None:
        """Drop every cached decision (e.g. after swapping fabrics)."""
        self._decisions.clear()
