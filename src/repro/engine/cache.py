"""Plan compilation cache: steady-state collectives skip the planner.

The paper's applications issue the *same* collective shape thousands of
times per run (one AllReduce per GNN layer per epoch, one AlltoAll per
BFS frontier round, ...), yet planning re-slices the hypercube into
groups, re-validates sizes, and rebuilds step lists on every call.
Plans are stateless once built -- steps hold only static parameters and
every execution threads its own :class:`ExecContext` -- so a compiled
plan is reusable verbatim.  The only per-call state a plan can carry is
scatter/broadcast payloads; cached plans are therefore compiled
*payload-free* and :func:`bind_payloads` grafts the call's payloads
onto a shallow copy at submission time.

Keys are :class:`~repro.engine.request.PlanKey` instances:
``(primitive, dims, size, offsets, dtype, op, variant)`` where
``variant`` is the (frozen, hashable) :class:`OptConfig`.  Hit/miss
counters feed :class:`~repro.engine.stats.EngineStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

import numpy as np

from ..core.collectives import CommPlan
from ..core.collectives.planner import _payload_bytes
from ..core.collectives.program import CommProgram
from .request import PlanKey

#: Default plan-cache bound.  Far above any application's working set
#: (a handful of distinct shapes), yet it keeps a service cycling
#: through unbounded shape sequences from leaking plans -- and, since
#: compiled programs hang off cache entries, index tables.
DEFAULT_MAXSIZE = 128

#: Sentinel for :meth:`PlanCache.partition`'s ``maxsize`` ("keep the
#: partition's current bound").
_KEEP: Any = object()


@dataclass
class _CacheEntry:
    """One cached plan plus its lazily compiled program."""

    plan: CommPlan
    program: CommProgram | None = None


@dataclass(frozen=True)
class PartitionKey:
    """A tenant-namespaced cache key.

    Partition views store their entries in the parent cache under
    ``PartitionKey(tenant, key)``, so two tenants issuing the identical
    collective shape compile (and evict) independently -- the isolation
    the serving front-end's per-tenant quotas rely on.
    """

    tenant: str
    key: Any


class CachePartition:
    """One tenant's view of a shared :class:`PlanCache`.

    The view namespaces every key with the tenant id, keeps its own LRU
    order and (optional) ``maxsize`` bound, and counts its own hits,
    misses, and evictions.  A partition evicting never touches another
    tenant's entries; conversely, when the *parent's* global LRU bound
    drops a partitioned entry, the owning partition is notified so its
    bookkeeping (and eviction count) stays truthful.
    """

    def __init__(self, parent: "PlanCache", tenant: str,
                 maxsize: int | None = None) -> None:
        self.parent = parent
        self.tenant = tenant
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._order: OrderedDict[PartitionKey, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Any) -> bool:
        return self._wrap(key) in self.parent

    def _wrap(self, key: Any) -> PartitionKey:
        return PartitionKey(self.tenant, key)

    def fetch(self, key: Any,
              builder: Callable[[], CommPlan]) -> tuple[CommPlan, bool]:
        """Cached plan for ``key`` within this partition; (plan, hit)."""
        wrapped = self._wrap(key)
        plan, hit = self.parent.fetch(wrapped, builder)
        if hit:
            self.hits += 1
            if wrapped in self._order:
                self._order.move_to_end(wrapped)
        else:
            self.misses += 1
            self._order[wrapped] = None
            self._enforce()
        return plan, hit

    def fetch_program(self, key: Any,
                      builder: Callable[[], CommProgram]
                      ) -> tuple[CommProgram, bool]:
        """Compiled program for ``key``'s partitioned plan entry."""
        return self.parent.fetch_program(self._wrap(key), builder)

    def fetch_schedule(self, key: Any) -> Any:
        """This partition's cached schedule decision (None = undecided)."""
        return self.parent.fetch_schedule(self._wrap(key))

    def store_schedule(self, key: Any, schedule: Any) -> None:
        """Commit a tuner decision under this partition's namespace."""
        self.parent.store_schedule(self._wrap(key), schedule)

    def invalidate_schedule(self, key: Any) -> None:
        """Drop this partition's decision for ``key`` (re-tune trigger)."""
        self.parent.invalidate_schedule(self._wrap(key))

    def _enforce(self) -> None:
        """Apply this partition's LRU bound (parent entries drop too)."""
        while self.maxsize is not None and len(self._order) > self.maxsize:
            victim, _ = self._order.popitem(last=False)
            self.parent.discard(victim)
            self.evictions += 1

    def _dropped(self, wrapped: PartitionKey) -> None:
        """Parent callback: the global LRU evicted one of our entries."""
        if wrapped in self._order:
            del self._order[wrapped]
            self.evictions += 1

    def counters(self) -> dict[str, int]:
        """Plain-dict snapshot for :class:`~repro.engine.EngineStats`."""
        return {"plans": len(self._order), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}

    def clear(self) -> None:
        """Drop this partition's entries (parent entries included)."""
        while self._order:
            victim, _ = self._order.popitem(last=False)
            self.parent.discard(victim)
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class PlanCache:
    """An LRU map from :class:`PlanKey` to compiled :class:`CommPlan`.

    Each entry also carries the plan's lowered :class:`CommProgram`
    once the engine first compiles it (:meth:`fetch_program`), so the
    steady state hits both the plan and its replay program with one
    lookup.  Eviction (LRU order, bound :data:`DEFAULT_MAXSIZE` unless
    overridden) drops both together; ``maxsize=None`` never evicts.
    """

    def __init__(self, maxsize: int | None = DEFAULT_MAXSIZE) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._plans: OrderedDict[PlanKey, _CacheEntry] = OrderedDict()
        self._partitions: dict[str, CachePartition] = {}
        # Tuner decisions (schedule_key -> Schedule) live in their own
        # LRU map: a decision is a few dozen bytes while a plan entry
        # carries a compiled program, so plan eviction pressure must
        # not wash out tuning decisions (and vice versa).  Bounded by
        # the same maxsize; a dropped decision merely re-searches.
        self._schedules: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def fetch(self, key: PlanKey,
              builder: Callable[[], CommPlan]) -> tuple[CommPlan, bool]:
        """Cached plan for ``key`` plus whether it was a hit.

        The flag refers to *this* lookup, so callers no longer have to
        infer it by differencing the global ``hits`` counter -- a
        race-of-meaning that breaks as soon as ``builder`` performs a
        nested lookup of its own.
        """
        entry = self._plans.get(key)
        if entry is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return entry.plan, True
        self.misses += 1
        plan = builder()
        self._plans[key] = _CacheEntry(plan)
        if self.maxsize is not None and len(self._plans) > self.maxsize:
            evicted, _ = self._plans.popitem(last=False)
            self.evictions += 1
            self._notify_evicted(evicted)
        return plan, False

    def fetch_program(self, key: PlanKey,
                      builder: Callable[[], CommProgram]
                      ) -> tuple[CommProgram, bool]:
        """Compiled program for ``key``'s cached plan; (program, hit).

        Compiles lazily on first request and parks the program on the
        plan's cache entry.  If the plan itself is no longer cached
        (evicted between the plan fetch and this call), the program is
        built but not stored -- correctness never depends on the cache.
        """
        entry = self._plans.get(key)
        if entry is None:
            return builder(), False
        self._plans.move_to_end(key)
        if entry.program is not None:
            return entry.program, True
        entry.program = builder()
        return entry.program, False

    # ------------------------------------------------------------------
    # Tuner decisions
    # ------------------------------------------------------------------
    def fetch_schedule(self, key: Any) -> Any:
        """The committed schedule decision for ``key``, or None."""
        schedule = self._schedules.get(key)
        if schedule is not None:
            self._schedules.move_to_end(key)
        return schedule

    def store_schedule(self, key: Any, schedule: Any) -> None:
        """Commit one tuner decision (LRU-bounded by ``maxsize``)."""
        self._schedules[key] = schedule
        self._schedules.move_to_end(key)
        while self.maxsize is not None \
                and len(self._schedules) > self.maxsize:
            self._schedules.popitem(last=False)

    def invalidate_schedule(self, key: Any) -> None:
        """Drop one decision so the next lookup re-searches."""
        self._schedules.pop(key, None)

    @property
    def schedules(self) -> int:
        """Number of committed schedule decisions currently cached."""
        return len(self._schedules)

    # ------------------------------------------------------------------
    # Tenant partitions
    # ------------------------------------------------------------------
    def partition(self, tenant: str,
                  maxsize: int | None = _KEEP) -> CachePartition:
        """The (lazily created) :class:`CachePartition` for ``tenant``.

        ``maxsize`` sets or updates the partition's own LRU bound
        (``None`` = only the parent's global bound applies); omit it to
        keep the partition's current bound.  Entries live in this
        cache's map under tenant-namespaced keys, so the global
        ``maxsize`` still bounds total memory.
        """
        view = self._partitions.get(tenant)
        if view is None:
            view = CachePartition(self, tenant,
                                  None if maxsize is _KEEP else maxsize)
            self._partitions[tenant] = view
        elif maxsize is not _KEEP:
            view.maxsize = maxsize
            view._enforce()
        return view

    def partition_counters(self) -> dict[str, dict[str, int]]:
        """tenant -> counter snapshot, for stats and reports."""
        return {tenant: view.counters()
                for tenant, view in sorted(self._partitions.items())}

    def discard(self, key: Any) -> None:
        """Drop one entry (plan and program) without LRU accounting.

        Used by partitions enforcing their own bounds; a partition
        counts the eviction itself, so the global ``evictions`` counter
        keeps meaning "dropped by the *global* LRU bound".
        """
        self._plans.pop(key, None)

    def _notify_evicted(self, key: Any) -> None:
        """Tell the owning partition its entry fell to the global LRU."""
        if isinstance(key, PartitionKey):
            view = self._partitions.get(key.tenant)
            if view is not None:
                view._dropped(key)

    @property
    def lookups(self) -> int:
        """Total lookups performed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache.

        Defined as 0.0 for a fresh (zero-lookup) cache, so sessions can
        report statistics before their first collective without a
        division hazard.
        """
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop all plans (and their programs) and reset the counters.

        Partition views survive (their bounds are configuration), but
        their contents and counters reset along with the parent.
        """
        self._plans.clear()
        self._schedules.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        for view in self._partitions.values():
            view._order.clear()
            view.hits = 0
            view.misses = 0
            view.evictions = 0


def bind_payloads(plan: CommPlan,
                  payloads: Mapping[int, np.ndarray] | None) -> CommPlan:
    """Graft per-call payloads onto a cached, payload-free plan.

    Returns ``plan`` unchanged when there is nothing to bind.  Only
    steps that source data from host payloads (and are not already fed
    from a scratch key by an earlier step) are copied; all other steps
    are shared with the cached plan, which stays payload-free.
    """
    if payloads is None:
        return plan
    raw = _payload_bytes(payloads)
    steps = []
    bound = False
    for step in plan.steps:
        takes_payloads = (hasattr(step, "payloads")
                          and getattr(step, "scratch_key", None) is None)
        if takes_payloads:
            steps.append(replace(step, payloads=raw))
            bound = True
        else:
            steps.append(step)
    if not bound:
        return plan
    return CommPlan(plan.primitive, steps, plan.meta)
