"""Topology-aware selection of the global-phase program.

:class:`GlobalTuner` prices candidates on the machine model and
caches the argmin, for the inter-host phase only (a single host runs
exactly the knobs its session was built with): per
``(primitive, payload, topology)`` it compiles the ring and the
generalized exchange over a small family of factorizations (including
the rack-aligned split), the reduction family in both stride orders
-- far-first ``(2, ..., 2)`` is recursive halving/doubling -- prices
each on the :class:`~repro.multihost.Fabric`, and commits the cheapest
into a decision cache keyed by the fabric's signature.

Because selection is an argmin over the same model the fixed
alternatives are priced with, the chosen program is never worse than
any fixed one *on modelled fabric seconds*
(``test_choice_is_argmin_of_candidates`` pins it; the ``multihost_8h``
benchmark workload watches it).  And because programs shape cost only
(the functional exchange is shared numpy), selection can never change
results.
"""

from __future__ import annotations

from .algorithms import GlobalProgram, compile_global, factor_candidates
from .fabric import Fabric


class GlobalTuner:
    """Cost-model argmin over global-phase programs, decision-cached.

    Args:
        fabric: The topology programs are priced on.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        #: (primitive, nbytes) -> chosen program; the fabric signature
        #: is part of the instance (one tuner per fabric), so the key
        #: stays small.
        self._decisions: dict[tuple[str, int], GlobalProgram] = {}
        self.searches = 0
        self.decision_hits = 0

    def candidates(self, primitive: str, nbytes: int
                   ) -> list[GlobalProgram]:
        """Every priced candidate, cheapest first.

        AlltoAll runs near-first only: reversing its phases changes
        the price in the last float bit at most, so it cannot win.  The
        direct exchange over the ring's phase is the ring for AlltoAll
        (no ring step) and on two hosts (one round), so it is skipped.
        """
        n = self.fabric.num_hosts
        orders = (False,) if primitive == "alltoall" else (True, False)
        ring = compile_global(primitive, n, nbytes, "ring", self.fabric)
        scored = [ring]
        for factors in factor_candidates(n, self.fabric):
            if factors == ring.factors and (primitive == "alltoall" or n <= 2):
                continue
            for far_first in orders if len(factors) > 1 else (False,):
                scored.append(compile_global(
                    primitive, n, nbytes, "exchange", self.fabric,
                    factors, far_first=far_first))
        # Stable tie-break: cheapest, then fewer rounds, then the
        # enumeration order above (ring first, far-first before
        # near-first).
        scored.sort(key=lambda p: (p.seconds, len(p.rounds)))
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
