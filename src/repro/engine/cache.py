"""Plan compilation cache: steady-state collectives skip the planner.

The paper's applications issue the *same* collective shape thousands of
times per run (one AllReduce per GNN layer per epoch, one AlltoAll per
BFS frontier round, ...), yet planning re-slices the hypercube into
groups, re-validates sizes, and rebuilds step lists on every call.
Plans are stateless once built -- steps hold only static parameters and
every execution threads its own :class:`ExecContext`, which carries
the call's scatter/broadcast payloads too -- so a cached plan and its
compiled program are reused verbatim by every call, on either engine.

Keys are :class:`~repro.engine.request.PlanKey` instances:
``(primitive, dims, size, offsets, dtype, op, variant)`` where
``variant`` is the (frozen, hashable) :class:`OptConfig`.  Hit/miss
counters feed :class:`~repro.engine.stats.EngineStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from ..core.collectives import CommPlan
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
